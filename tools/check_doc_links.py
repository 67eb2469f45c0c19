#!/usr/bin/env python3
"""Fails CI on dead relative links in the markdown docs.

Scans README.md, ROADMAP.md, CHANGES.md and docs/*.md for markdown links
and inline `path` references to repo files, and verifies every relative
link target exists. External links (http/https/mailto) are not fetched —
this gate is about keeping the internal doc graph (README → docs/ →
docs/) unbroken as files move.

Usage: python3 tools/check_doc_links.py [repo_root]
Exit 0 if every relative link resolves, 1 otherwise (one line per dead
link: file, line, target).

python3 tools/check_doc_links.py --run-commands BUILD_DIR [repo_root]
runs every `hacksim_run` command inside a fenced code block of README.md
and docs/*.md against BUILD_DIR/hacksim_run (backslash continuations
joined, `#` comments dropped, any path before `hacksim_run` ignored).
Exit 1 if any command exits nonzero (one line per failing command: file,
line, arguments, exit code and its last stderr line).

python3 tools/check_doc_links.py --self-test exercises both modes on
synthetic doc trees (a clean tree must pass; a dead link, and a command
line the runner rejects, must fail) and exits 0 iff all behave.
"""

import pathlib
import re
import shlex
import subprocess
import sys

# [text](target) — target captured up to the closing paren; markdown in
# our docs never nests parens inside link targets.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")


def doc_files(root: pathlib.Path):
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        p = root / name
        if p.exists():
            yield p
    yield from sorted((root / "docs").glob("*.md"))


def check(root: pathlib.Path) -> int:
    dead = []
    checked = 0
    for doc in doc_files(root):
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in LINK_RE.findall(line):
                if target.startswith(SKIP_SCHEMES):
                    continue
                # Strip an anchor: header anchors aren't validated, only
                # the file half of the link.
                path_part = target.split("#", 1)[0]
                if not path_part:
                    continue
                checked += 1
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    dead.append((doc.relative_to(root), lineno, target))
    for doc, lineno, target in dead:
        print(f"DEAD LINK {doc}:{lineno}: ({target})")
    print(
        f"doc link check: {checked} relative links, {len(dead)} dead"
        + (" — FAILED" if dead else "")
    )
    return 1 if dead else 0


def fenced_commands(root: pathlib.Path):
    """Yields (doc, line, args) for each fenced hacksim_run command."""
    docs = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    for doc in docs:
        if not doc.exists():
            continue
        in_fence = False
        pending, start = "", 0
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.lstrip().startswith("```"):
                in_fence, pending = not in_fence, ""
                continue
            if not in_fence:
                continue
            if not pending:
                start = lineno
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1] + " "
                continue
            command, pending = pending, ""
            if "hacksim_run" not in command:
                continue
            try:
                tokens = shlex.split(command, comments=True)
            except ValueError:  # unbalanced quotes: reported as a failure
                tokens = ["hacksim_run", "--unparseable-doc-line"]
            if tokens and tokens[0].split("/")[-1] == "hacksim_run":
                yield doc.relative_to(root), start, tokens[1:]


def run_commands(root: pathlib.Path, build: pathlib.Path) -> int:
    binary = build.resolve() / "hacksim_run"
    failed = ran = 0
    for doc, lineno, args in fenced_commands(root):
        ran += 1
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            failed += 1
            last = (proc.stderr.strip().splitlines() or [""])[-1]
            print(f"FAILED COMMAND {doc}:{lineno}: hacksim_run "
                  f"{' '.join(args)} (exit {proc.returncode}: {last})")
    print(f"doc command check: {ran} hacksim_run lines, {failed} failed"
          + (" — FAILED" if failed else ""))
    return 1 if failed or ran == 0 else 0


def self_test() -> int:
    """Both modes on synthetic trees: clean → 0, dead link or bad command → 1."""
    import tempfile

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "docs").mkdir()
        (root / "docs" / "guide.md").write_text(
            "See [the readme](../README.md).\n", encoding="utf-8")
        (root / "README.md").write_text(
            "See [the guide](docs/guide.md).\n", encoding="utf-8")
        rc = check(root)
        if rc != 0:
            print("self-test FAIL: clean doc tree did not pass")
            ok = False
        (root / "docs" / "guide.md").write_text(
            "See [gone](missing.md).\n", encoding="utf-8")
        rc = check(root)
        if rc != 1:
            print("self-test FAIL: dead link did not fail the check")
            ok = False
        # A stand-in runner that rejects an unknown flag like the real one.
        build = root / "build"
        build.mkdir()
        runner = build / "hacksim_run"
        runner.write_text("#!/bin/sh\n"
                          "for a; do case $a in --bogus*) "
                          "echo \"unknown flag: $a\" >&2; exit 2;; esac; done\n",
                          encoding="utf-8")
        runner.chmod(0o755)
        fence = "```"
        (root / "docs" / "guide.md").write_text(
            f"{fence}sh\n./build/hacksim_run --clients=2 \\\n"
            f"    --seconds=1  # comment\n{fence}\n", encoding="utf-8")
        if run_commands(root, build) != 0:
            print("self-test FAIL: a valid command line did not pass")
            ok = False
        (root / "README.md").write_text(
            f"{fence}\nhacksim_run --seconds=1 \\\n    --bogus=1\n{fence}\n",
            encoding="utf-8")
        if run_commands(root, build) != 1:
            print("self-test FAIL: a rejected command line did not fail")
            ok = False
    print("check_doc_links self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    args = sys.argv[1:]
    if "--self-test" in args:
        return self_test()
    if args and args[0] == "--run-commands":
        if len(args) < 2:
            print("usage: check_doc_links.py --run-commands BUILD_DIR "
                  "[repo_root]")
            return 2
        root = pathlib.Path(args[2] if len(args) > 2 else ".").resolve()
        return run_commands(root, pathlib.Path(args[1]))
    root = pathlib.Path(args[0] if args else ".").resolve()
    return check(root)


if __name__ == "__main__":
    sys.exit(main())
