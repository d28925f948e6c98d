#!/usr/bin/env python
"""Documentation hygiene checks: links, orphan guides, docstrings.

Three independent gates, all stdlib-only:

* **Link check** — every relative Markdown link in ``README.md`` and
  ``docs/**/*.md`` must point at a file that exists (external
  ``http(s)``/``mailto`` links and pure ``#anchor`` links are skipped;
  anchors on relative links are stripped before the existence check).

* **Orphan-guide check** — every guide page directly under ``docs/``
  must be reachable from the ``docs/index.md`` landing page, so no
  guide silently drops out of the documentation graph.

* **Docstring lint** — every public module, class, function, and public
  method under the lint roots (see ``LINT_ROOTS``) must carry a
  docstring.  "Public" means: reachable via a name that does not start
  with ``_``.  Inherited members defined outside the linted package are
  not re-linted.

Exit status is non-zero if any gate fails; CI runs this in the docs
job so undocumented surface, dead links, or orphan guides fail the
build.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Packages whose public surface must be fully docstring'd.
LINT_ROOTS = [
    "repro.cache",
    "repro.campaign",
    "repro.dse",
    "repro.obs",
    "repro.serve",
    "repro.telemetry",
    "repro.verify",
]

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


# ----------------------------------------------------------------------
# Link checking
# ----------------------------------------------------------------------
def doc_files() -> list:
    """README plus every Markdown file under docs/, repo-relative."""
    files = ["README.md"]
    docs_dir = os.path.join(REPO_ROOT, "docs")
    for dirpath, _dirnames, filenames in os.walk(docs_dir):
        for filename in sorted(filenames):
            if filename.endswith(".md"):
                path = os.path.join(dirpath, filename)
                files.append(os.path.relpath(path, REPO_ROOT))
    return files


def check_links() -> list:
    """Dead relative links as ``"file: target"`` strings."""
    problems = []
    for rel_path in doc_files():
        path = os.path.join(REPO_ROOT, rel_path)
        if not os.path.exists(path):
            continue
        text = Path(path).read_text(encoding="utf-8")
        base = os.path.dirname(path)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            target_path = target.split("#", 1)[0]
            if not target_path:
                continue
            resolved = os.path.normpath(os.path.join(base, target_path))
            if not os.path.exists(resolved):
                problems.append(f"{rel_path}: dead link -> {target}")
    return problems


def check_orphan_guides() -> list:
    """Guide pages under ``docs/`` not linked from ``docs/index.md``.

    Only top-level guides are gated; the generated ``docs/api/`` tree
    is reachable through ``docs/api/index.md`` and regenerated
    wholesale, so it polices itself via ``gen_api_docs.py --check``.
    """
    docs_dir = os.path.join(REPO_ROOT, "docs")
    index_path = os.path.join(docs_dir, "index.md")
    if not os.path.exists(index_path):
        return ["docs/index.md: missing (the landing page is mandatory)"]
    text = Path(index_path).read_text(encoding="utf-8")
    linked = set()
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        target_path = target.split("#", 1)[0]
        if not target_path:
            continue
        linked.add(os.path.normpath(os.path.join(docs_dir, target_path)))
    problems = []
    for filename in sorted(os.listdir(docs_dir)):
        if not filename.endswith(".md") or filename == "index.md":
            continue
        if os.path.join(docs_dir, filename) not in linked:
            problems.append(
                f"docs/{filename}: orphan guide (not linked from "
                f"docs/index.md)"
            )
    return problems


# ----------------------------------------------------------------------
# Docstring lint
# ----------------------------------------------------------------------
def _iter_modules(root: str):
    module = importlib.import_module(root)
    yield root, module
    search_path = getattr(module, "__path__", None)
    if search_path is None:
        return
    for info in pkgutil.walk_packages(search_path, prefix=root + "."):
        yield info.name, importlib.import_module(info.name)


def _missing_in_class(qualname: str, cls, module_name: str) -> list:
    missing = []
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        target = member
        if isinstance(member, (classmethod, staticmethod)):
            target = member.__func__
        elif isinstance(member, property):
            target = member.fget
        if target is None or not callable(target):
            continue
        if getattr(target, "__module__", None) != module_name:
            continue
        if not inspect.getdoc(target):
            missing.append(f"{qualname}.{name}")
    return missing


def check_docstrings(roots=None) -> list:
    """Public names lacking docstrings, as dotted-path strings."""
    missing = []
    for root in roots or LINT_ROOTS:
        for module_name, module in _iter_modules(root):
            if module_name.rsplit(".", 1)[-1].startswith("_"):
                continue
            if not inspect.getdoc(module):
                missing.append(module_name)
            for name in dir(module):
                if name.startswith("_"):
                    continue
                obj = getattr(module, name)
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module_name:
                    continue  # re-export; linted at its defining module
                qualname = f"{module_name}.{name}"
                if not inspect.getdoc(obj):
                    missing.append(qualname)
                if inspect.isclass(obj):
                    missing.extend(
                        _missing_in_class(qualname, obj, module_name)
                    )
    return sorted(set(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--links-only", action="store_true", help="skip the docstring lint"
    )
    parser.add_argument(
        "--docstrings-only", action="store_true", help="skip the link check"
    )
    args = parser.parse_args(argv)
    failed = False
    if not args.docstrings_only:
        dead = check_links()
        for problem in dead:
            print(problem, file=sys.stderr)
        if dead:
            failed = True
        else:
            print(f"links ok ({len(doc_files())} files scanned)")
        orphans = check_orphan_guides()
        for problem in orphans:
            print(problem, file=sys.stderr)
        if orphans:
            failed = True
        else:
            print("guides ok (all reachable from docs/index.md)")
    if not args.links_only:
        missing = check_docstrings()
        for name in missing:
            print(f"missing docstring: {name}", file=sys.stderr)
        if missing:
            failed = True
        else:
            print(f"docstrings ok ({', '.join(LINT_ROOTS)})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
