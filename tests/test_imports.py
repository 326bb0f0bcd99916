"""Every name that a test module, a demo or a package module imports is used in it,
but for the names the package re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression in ``source`` reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os.path\nimport sys\nprint(sys)\n"
    assert unused_imports(source) == [(2, "os")]


def unused_in(files: list[Path], exempt: tuple = ()) -> list[str]:
    """``path:line: name`` of each unused import, but for the (path, name) pairs in ``exempt``."""
    unused = []
    for path in files:
        rel = path.relative_to(ROOT).as_posix()
        unused += [f"{rel}:{line}: {name}" for line, name in unused_imports(path.read_text(encoding="utf-8"))
                   if (rel, name) not in exempt]
    return unused


def test_tests_and_demos_use_every_import():
    files = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py")])
    assert len(files) > 10
    assert unused_in(files) == []


def test_package_modules_use_every_import():
    # __init__ re-exports the public names; ddpg re-exports minmax_action by name.
    files = sorted(path for path in ROOT.glob("src/drlfolio/*.py") if path.name != "__init__.py")
    assert len(files) > 5
    assert unused_in(files, exempt=(("src/drlfolio/ddpg.py", "minmax_action"),)) == []


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_only_market_data_writes_csv():
    # One module knows the CSV format, so every written file reads back the same way.
    files = sorted(ROOT.glob("src/drlfolio/*.py"))
    assert len(files) > 5
    importers = [path.stem for path in files if "csv" in imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["market_data"]


def ohlc_reads(source: str) -> list[int]:
    """Lines of ``source`` that read an ``open``, ``high``, ``low`` or ``close``
    attribute without calling it, or call ``.feature``."""
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    called = {id(node.func) for node in calls}
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                   and node.attr in ("open", "high", "low", "close") and id(node) not in called}
                  | {node.lineno for node in calls if isinstance(node.func, ast.Attribute)
                     and node.func.attr == "feature"})


def test_scan_finds_ohlc_reads():
    source = "a = m.close[:, 0]\nfh.close()\nb = m.feature('open')\nc = m.prices[3]\nd = path.open()\n"
    assert ohlc_reads(source) == [1, 3]


def test_only_market_data_reads_a_market_field_by_field():
    # Everyone else reads AlignedMarket.prices, so the four fields have one layout.
    files = sorted(ROOT.glob("src/drlfolio/*.py"))
    assert len(files) > 5
    readers = [path.stem for path in files if ohlc_reads(path.read_text(encoding="utf-8"))]
    assert readers == ["market_data"]


def package_imports(source: str) -> set[str]:
    """The ``drlfolio`` modules that ``source`` imports from: ``from .x``, ``from . import x``
    or ``from drlfolio.x``."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        path = node.module.split(".") if node.module else []
        if node.level == 0:
            if path[0] != "drlfolio":
                continue
            path = path[1:]
        modules |= {path[0]} if path else {alias.name for alias in node.names}
    return modules


def test_scan_finds_package_imports():
    source = ("from .ddpg import TrainLog\nfrom . import neural\nfrom drlfolio.cli import main\n"
              "from drlfolio import analytics\nfrom numpy.linalg import norm\n")
    assert package_imports(source) == {"ddpg", "neural", "cli", "analytics"}


def test_simulation_modules_do_not_depend_on_the_trainer():
    # The backtest and the factor baseline run without the networks or the trainer.
    direct = {path.stem: package_imports(path.read_text(encoding="utf-8"))
              for path in ROOT.glob("src/drlfolio/*.py")}
    for name in ("market_data", "portfolio_math", "trading_env", "analytics", "baseline_factor"):
        reached, todo = set(), [name]
        while todo:
            new = direct[todo.pop()] - reached
            reached |= new
            todo += new
        assert not reached & {"neural", "ddpg"}, name


def meta_reads(source: str) -> list[int]:
    """Lines of ``source`` that subscript a name ``meta`` or call ``.get`` on it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "meta":
            lines.append(node.lineno)
    return lines


def test_scan_finds_meta_reads():
    source = "meta = {}\nw = meta['window']\na = meta.get('arbitrage')\nb = payload['meta']\n"
    assert meta_reads(source) == [2, 3]


def test_only_ddpg_reads_a_checkpoint_meta():
    # check_checkpoint types every field a backtest reads; everyone else reads its result.
    files = sorted(ROOT.glob("src/drlfolio/*.py"))
    assert len(files) > 5
    readers = [path.stem for path in files if meta_reads(path.read_text(encoding="utf-8"))]
    assert readers == ["ddpg"]
