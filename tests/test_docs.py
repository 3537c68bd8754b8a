"""The docs must describe the tree that exists: module map and named files."""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def _module_map_paths() -> set[str]:
    """Paths named in the map, relative to ``src/repro/``.

    The map is the first fenced block of section 3: two-space entries sit
    directly under ``src/repro/`` (``name/`` opens a package, ``name.py``
    is a module), four-space entries are modules of the open package.
    Deeper-indented lines are description continuations.
    """
    text = (REPO_ROOT / "DESIGN.md").read_text()
    section = text.split("## 3. System inventory (module map)", 1)[1]
    block = section.split("```", 2)[1]
    paths: set[str] = set()
    package = ""
    for line in block.splitlines():
        m = re.match(r"^( {2}| {4})([\w.]+(?:\.py|/))(\s|$)", line)
        if not m:
            continue
        indent, name = len(m.group(1)), m.group(2)
        if indent == 2:
            package = name if name.endswith("/") else ""
            paths.add(name.rstrip("/"))
        else:
            assert package, f"module {name!r} listed outside any package"
            paths.add(package + name)
    return paths


def test_every_path_in_the_module_map_exists():
    paths = _module_map_paths()
    assert len(paths) > 50  # the parser found the map, not a stray block
    missing = sorted(p for p in paths if not (PACKAGE / p).exists())
    assert not missing, f"DESIGN.md §3 names paths that do not exist: {missing}"


def test_every_module_is_in_the_module_map():
    paths = _module_map_paths()
    # a package's __init__.py is covered by the package's own entry
    modules = {
        f.relative_to(PACKAGE).as_posix()
        for f in PACKAGE.rglob("*.py")
        if f.name != "__init__.py"
    }
    packages = {
        d.relative_to(PACKAGE).as_posix()
        for d in PACKAGE.rglob("*")
        if d.is_dir() and (d / "__init__.py").exists()
    }
    unlisted = sorted((modules | packages) - paths)
    assert not unlisted, f"DESIGN.md §3 omits: {unlisted}"


#: a repo-relative path under one of the three trees (globs allowed)
_TREE_PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|tests|examples)/[\w./*-]*[\w*/])")
#: a committed bench record at the repo root
_BENCH_RECORD = re.compile(r"(?<![\w/.-])(BENCH_\w+\.json)")
#: a bench script named without its directory
_BARE_BENCH = re.compile(r"(?<![\w/.-])(bench_\w+\.py)")


def test_docs_name_only_files_that_exist():
    """README, DESIGN and EXPERIMENTS, and every module under ``src/repro/``
    (its docstrings, comments and help strings), name only files that exist."""
    # run outputs (gitignored directories such as benchmarks/results/)
    # are written by the benches, not committed, so the docs may name them
    outputs = tuple(
        line.strip()
        for line in (REPO_ROOT / ".gitignore").read_text().splitlines()
        if "/" in line.strip().rstrip("/")
    )
    sources = [REPO_ROOT / doc for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    sources += sorted(PACKAGE.rglob("*.py"))
    missing = []
    for source in sources:
        text = source.read_text()
        named = set(_TREE_PATH.findall(text)) | set(_BENCH_RECORD.findall(text))
        named |= {f"benchmarks/{b}" for b in _BARE_BENCH.findall(text)}
        for path in sorted(named):
            if path.startswith(outputs):
                continue
            if not any(REPO_ROOT.glob(path)):
                missing.append(f"{source.relative_to(REPO_ROOT)}: {path}")
    assert not missing, f"docs name files that do not exist: {missing}"


def _subcommand_options() -> dict[str, set[str]]:
    """``repro <cmd>`` -> every option string of that subcommand's parser
    and of its actions' parsers (``regress check``, ``cache list``, ...)."""
    import argparse

    from repro.cli import build_parser

    def options(parser: argparse.ArgumentParser) -> set[str]:
        found: set[str] = set()
        for action in parser._actions:
            found.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    found |= options(child)
        return found

    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    return {name: options(parser) for name, parser in sub.choices.items()}


#: inline code spans and fenced blocks, where the docs spell out commands
_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.S)
#: one ``repro <cmd> ...`` invocation, up to the end of its line or span, a
#: shell comment or a command separator
_INVOCATION = re.compile(r"\brepro ([a-z][\w-]*)([^\n`#|;&]*)")
_LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def test_docs_name_only_cli_flags_that_exist():
    """Every ``--flag`` after ``repro <cmd>`` in README, DESIGN and
    EXPERIMENTS (``\\`` continuations joined) is an option of that
    subcommand or of one of its actions."""
    known = _subcommand_options()
    wrong, seen = [], 0
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        text = re.sub(r"\\\n\s*", " ", (REPO_ROOT / doc).read_text())
        for code in _CODE.findall(text):
            for cmd, rest in _INVOCATION.findall(code):
                if cmd not in known:
                    wrong.append(f"{doc}: repro {cmd} (no such subcommand)")
                    continue
                for flag in _LONG_FLAG.findall(rest):
                    seen += 1
                    if flag not in known[cmd]:
                        wrong.append(f"{doc}: repro {cmd} {flag}")
    assert seen > 10  # the scan found the documented invocations
    assert not wrong, f"docs name CLI flags that do not exist: {wrong}"
