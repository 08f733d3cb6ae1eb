#!/usr/bin/env python3
"""Docs-consistency checks, run in CI (docs job).

Four classes of drift this catches:

  1. Engine-name drift — the engine set documented in README.md must match
     what `parse_engine` / `to_string` in src/mc/engine.hpp actually accept.
     `parse_engine` and `to_string` must round-trip the same EngineKind set,
     every engine name from the header must appear backticked in README.md,
     and every `--engine a|b|c` alternation in README.md and the CLI header
     comment must list exactly the header's engine set.

  2. Reduction-name drift — same contract for the state-space reductions:
     every reduction name `parse_reduction` / `to_string(ReductionKind)`
     accepts must appear backticked in README.md, and every
     `--reduction a|b` alternation in README.md and the CLI header comment
     must list exactly the header's reduction set.

  2b. Store-name drift — same contract again for the explicit-state store
     backends: every store name `parse_store` / `to_string(StoreKind)`
     accepts must appear backticked in README.md, and every `--store a|b`
     alternation in README.md and the CLI header comment must list exactly
     the header's store set.

  3. Dangling section references — every "DESIGN.md §X.Y" referenced from
     CHANGES.md (the per-PR changelog) must exist as a heading in DESIGN.md.

  4. Broken intra-repo links — every relative markdown link target in the
     repo's *.md files must resolve to an existing file (anchors and
     external http/mailto links are skipped). So must every backticked repo
     path with a file extension: `src/...`, `tests/...`, `bench/...` and the
     short form `mc/...` for a directory under src/. Paths are checked only
     in the docs that describe the current tree (CURRENT_TREE_DOCS): the
     changelog records past trees, PAPERS.md and SNIPPETS.md other repos.

  5. Dead environment knobs — every TTSTART_* variable named in README.md,
     DESIGN.md, EXPERIMENTS.md or benchmark/README.md must be read by some
     code: quoted in a C++ or Python source (a getenv/setenv name) or named
     in a CMake file. ROADMAP.md is exempt: it names things still to be
     built.

Usage: check_docs.py [REPO_ROOT]      (default: parent of this script)
Exit code 0 when everything is consistent, 1 otherwise (all failures listed).
"""

import os
import re
import sys


def fail(failures, msg):
    failures.append(msg)


def read(root, rel):
    with open(os.path.join(root, rel), "r", encoding="utf-8") as f:
        return f.read()


def check_engine_names(root, failures):
    header = read(root, "src/mc/engine.hpp")
    engines = [m for m in re.findall(
        r'case EngineKind::k\w+:\s*return "(\w+)";', header)]
    if not engines:
        fail(failures, "src/mc/engine.hpp: found no EngineKind names (regex drift?)")
        return
    # parse_engine and to_string must round-trip the same name set; an
    # engine added to one but not the other is exactly the drift this
    # catches (e.g. a new proof engine that to_string can print but the CLI
    # cannot select).
    parse_block = re.search(r"parse_engine\(.*?\n}", header, re.S)
    if not parse_block:
        fail(failures, "src/mc/engine.hpp: found no parse_engine body "
                       "(regex drift?)")
    else:
        parsed = re.findall(r"EngineKind::k\w+", parse_block.group(0))
        cased = re.findall(r"case (EngineKind::k\w+):", header)
        if sorted(set(parsed)) != sorted(set(cased)):
            fail(failures, f"src/mc/engine.hpp: parse_engine accepts "
                           f"{sorted(set(parsed))} but to_string names "
                           f"{sorted(set(cased))}")
    readme = read(root, "README.md")
    for name in engines:
        if f"`{name}`" not in readme and f"`--engine {name}" not in readme \
                and not re.search(r"`[^`]*\b" + re.escape(name) + r"\b[^`]*`", readme):
            fail(failures, f"README.md: engine '{name}' (src/mc/engine.hpp) "
                           f"never mentioned in backticks")
    # Every `--engine a|b|c` alternation in the docs must equal the real set.
    for rel in ("README.md", "examples/exhaustive_fault_simulation.cpp"):
        text = read(root, rel)
        for alt in re.findall(r"--engine[ <]+((?:\w+\\?\|)+\w+)", text):
            listed = alt.replace("\\", "").split("|")
            if sorted(listed) != sorted(engines):
                fail(failures, f"{rel}: '--engine {alt}' lists {listed}, but "
                               f"src/mc/engine.hpp accepts {engines}")


def check_reduction_names(root, failures):
    # Reduction names may contain '+' ("sym+por"), so the name class is
    # [\w+] rather than \w both here and in the alternation scan below.
    header = read(root, "src/mc/engine.hpp")
    reductions = [m for m in re.findall(
        r'case ReductionKind::k\w+:\s*return "([\w+]+)";', header)]
    if not reductions:
        fail(failures, "src/mc/engine.hpp: found no ReductionKind names "
                       "(regex drift?)")
        return
    # parse_reduction and to_string must round-trip the same name set; a
    # name added to one but not the other is exactly the drift this catches.
    parse_block = re.search(
        r"parse_reduction\(.*?\n}", header, re.S)
    if not parse_block:
        fail(failures, "src/mc/engine.hpp: found no parse_reduction body "
                       "(regex drift?)")
    else:
        parsed = re.findall(r"ReductionKind::k\w+", parse_block.group(0))
        cased = re.findall(r"case (ReductionKind::k\w+):", header)
        if sorted(set(parsed)) != sorted(set(cased)):
            fail(failures, f"src/mc/engine.hpp: parse_reduction accepts "
                           f"{sorted(set(parsed))} but to_string names "
                           f"{sorted(set(cased))}")
    readme = read(root, "README.md")
    for name in reductions:
        if f"`{name}`" not in readme \
                and not re.search(r"`[^`]*" + re.escape(name) + r"[^`]*`", readme):
            fail(failures, f"README.md: reduction '{name}' (src/mc/engine.hpp) "
                           f"never mentioned in backticks")
    # Every `--reduction a|b` alternation in the docs must equal the real set.
    for rel in ("README.md", "examples/exhaustive_fault_simulation.cpp"):
        text = read(root, rel)
        for alt in re.findall(r"--reduction[ <]+((?:[\w+]+\\?\|)+[\w+]+)", text):
            listed = alt.replace("\\", "").split("|")
            if sorted(listed) != sorted(reductions):
                fail(failures, f"{rel}: '--reduction {alt}' lists {listed}, but "
                               f"src/mc/engine.hpp accepts {reductions}")


def check_store_names(root, failures):
    header = read(root, "src/mc/engine.hpp")
    stores = [m for m in re.findall(
        r'case StoreKind::k\w+:\s*return "([\w-]+)";', header)]
    if not stores:
        fail(failures, "src/mc/engine.hpp: found no StoreKind names "
                       "(regex drift?)")
        return
    readme = read(root, "README.md")
    for name in stores:
        if f"`{name}`" not in readme \
                and not re.search(r"`[^`]*\b" + re.escape(name) + r"\b[^`]*`", readme):
            fail(failures, f"README.md: store '{name}' (src/mc/engine.hpp) "
                           f"never mentioned in backticks")
    # Every `--store a|b` alternation in the docs must equal the real set.
    for rel in ("README.md", "examples/exhaustive_fault_simulation.cpp"):
        text = read(root, rel)
        for alt in re.findall(r"--store[ <]+((?:[\w-]+\\?\|)+[\w-]+)", text):
            listed = alt.replace("\\", "").split("|")
            if sorted(listed) != sorted(stores):
                fail(failures, f"{rel}: '--store {alt}' lists {listed}, but "
                               f"src/mc/engine.hpp accepts {stores}")


def check_design_sections(root, failures):
    changes = read(root, "CHANGES.md")
    design = read(root, "DESIGN.md")
    headings = set(re.findall(r"^#{1,6}\s+(\d+(?:\.\d+)*)[. ]", design, re.M))
    for sec in re.findall(r"DESIGN\.md\s+§(\d+(?:\.\d+)*)", changes):
        if sec not in headings:
            fail(failures, f"CHANGES.md: references DESIGN.md §{sec}, but "
                           f"DESIGN.md has no such heading")


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", "build") and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.relpath(os.path.join(dirpath, name), root)


def check_markdown_links(root, failures):
    link_re = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    for rel in markdown_files(root):
        text = read(root, rel)
        # Strip fenced code blocks: their bracket/paren sequences are code.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for target in link_re.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(root, os.path.dirname(rel), path))
            if not os.path.exists(resolved):
                fail(failures, f"{rel}: link target '{target}' does not exist")


CURRENT_TREE_DOCS = ("README.md", "DESIGN.md", "ROADMAP.md", "EXPERIMENTS.md",
                     "benchmark/README.md")


def check_backticked_paths(root, failures):
    src_dirs = {d for d in os.listdir(os.path.join(root, "src"))
                if os.path.isdir(os.path.join(root, "src", d))}
    # A path token: no spaces, at least one '/', a file extension, and
    # optionally a :line suffix or trailing punctuation inside the backticks.
    path_re = re.compile(r"`([\w\-/]+/[\w\-.]*\.\w+)(?::\d+)?[.,;:]?`")
    for rel in CURRENT_TREE_DOCS:
        if not os.path.exists(os.path.join(root, rel)):
            continue
        for path in path_re.findall(read(root, rel)):
            first = path.split("/", 1)[0]
            if first in ("src", "tests", "bench"):
                resolved = path
            elif first in src_dirs:
                resolved = "src/" + path
            else:
                continue
            if not os.path.exists(os.path.join(root, resolved)):
                fail(failures, f"{rel}: path `{path}` does not exist")


KNOB_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmark/README.md")
CODE_DIRS = ("src", "bench", "examples", "tests", "benchmark", "scripts")


def knobs_read_by_code(root):
    """TTSTART_* names the code reads: quoted in C++/Python, or in CMake."""
    quoted = re.compile(r"[\"'](TTSTART_\w+)[\"']")
    bare = re.compile(r"\bTTSTART_\w+")
    this_script = os.path.abspath(__file__)
    files = [os.path.join(root, "CMakeLists.txt")]
    for top in CODE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            files += [os.path.join(dirpath, f) for f in filenames]
    names = set()
    for path in files:
        name = os.path.basename(path)
        if os.path.abspath(path) == this_script or not os.path.isfile(path):
            continue
        if name == "CMakeLists.txt" or name.endswith(".cmake"):
            names.update(bare.findall(read(root, path)))
        elif name.endswith((".cpp", ".hpp", ".h", ".py")):
            names.update(quoted.findall(read(root, path)))
    return names


def check_env_knobs(root, failures):
    read_by_code = knobs_read_by_code(root)
    for rel in KNOB_DOCS:
        if not os.path.exists(os.path.join(root, rel)):
            continue
        for name in sorted(set(re.findall(r"\bTTSTART_\w+", read(root, rel)))):
            if name not in read_by_code:
                fail(failures, f"{rel}: names {name}, but no code reads it")


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failures = []
    check_engine_names(root, failures)
    check_reduction_names(root, failures)
    check_store_names(root, failures)
    check_design_sections(root, failures)
    check_markdown_links(root, failures)
    check_backticked_paths(root, failures)
    check_env_knobs(root, failures)
    if failures:
        for f in failures:
            print(f"FAIL — {f}", file=sys.stderr)
        return 1
    print(f"OK — docs consistent under {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
