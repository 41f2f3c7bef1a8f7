"""How the native Viterbi kernel gets built, cached and, failing that, skipped.

``repro.coding.kernels`` compiles ``_viterbi.c`` on first use into the
package's ``__pycache__``.  These tests point the cache somewhere private
and take the compiler away, break it, or race for it.
"""

from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro.coding import kernels
from repro.errors import ConfigurationError

needs_compiler = pytest.mark.skipif(
    kernels._find_compiler() is None, reason="no C compiler here"
)

#: Resolve ``native`` in a fresh interpreter against the cache directory in
#: argv[1] (without a compiler when argv[2] says so) and print what is there.
_RESOLVE = """
import glob, os, sys
from repro.coding import kernels
kernels._CACHE_DIR = sys.argv[1]
if sys.argv[2] == "no-compiler":
    kernels._find_compiler = lambda: None
backend = kernels.resolve_backend("native")
artefacts = sorted(glob.glob(os.path.join(sys.argv[1], "_viterbi-*.so")))
print(backend.name, *(os.stat(artefact).st_mtime_ns for artefact in artefacts))
"""


def _fresh_interpreter(cache_dir, compiler: str = "compiler", cc: str = ""):
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop(kernels.BACKEND_ENV, None)
    if cc:
        env["CC"] = cc
    return subprocess.Popen(
        [sys.executable, "-c", _RESOLVE, str(cache_dir), compiler],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process) -> list[str]:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return out.split()


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """An empty artefact cache and nothing resolved yet."""
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels, "_RESOLVED", {})
    monkeypatch.setattr(kernels, "unavailable", {})
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
    return tmp_path / "cache"


def test_no_compiler_falls_back_silently(empty_cache, monkeypatch) -> None:
    monkeypatch.setattr(kernels, "_find_compiler", lambda: None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels.resolve_backend("auto").name == "numpy"
    assert "no C compiler" in kernels.unavailable["native"]
    assert kernels.available_backends() == ["numpy"]
    with pytest.raises(ConfigurationError, match="no C compiler"):
        kernels.resolve_backend("native")
    assert not empty_cache.exists()


def test_unwritable_cache_falls_back_with_the_reason(
    empty_cache, monkeypatch
) -> None:
    if kernels._find_compiler() is None:
        monkeypatch.setattr(kernels, "_find_compiler", lambda: "cc")
    # A cache directory that cannot be created or written, even by root.
    empty_cache.write_text("a file where the directory should be")
    with pytest.warns(RuntimeWarning, match="cannot build"):
        assert kernels.resolve_backend("auto").name == "numpy"
    with warnings.catch_warnings():  # once: "auto" is memoized
        warnings.simplefilter("error")
        assert kernels.resolve_backend("auto").name == "numpy"
    with pytest.raises(ConfigurationError, match="cannot build"):
        kernels.resolve_backend("native")


def test_failed_compile_warns_and_leaves_nothing_behind(
    empty_cache, monkeypatch
) -> None:
    broken = shutil.which("false")
    if broken is None:
        pytest.skip("no `false` to stand in for a broken compiler")
    monkeypatch.setattr(kernels, "_find_compiler", lambda: broken)
    with pytest.warns(RuntimeWarning, match="native Viterbi kernel unavailable"):
        assert kernels.resolve_backend("auto").name == "numpy"
    assert "failed" in kernels.unavailable["native"]
    assert os.listdir(empty_cache) == []


@needs_compiler
def test_second_interpreter_reuses_the_artefact(tmp_path) -> None:
    name, built = _finish(_fresh_interpreter(tmp_path))
    again, reused = _finish(_fresh_interpreter(tmp_path, "no-compiler"))
    assert name == again == "native"
    assert built == reused  # same file, not rebuilt: no compiler was to be had
    assert len(os.listdir(tmp_path)) == 1


@needs_compiler
def test_artefact_is_keyed_by_the_compiler_named(tmp_path) -> None:
    """``$CC`` picks the build, so it picks the artefact: a wrapper (sanitizer
    flags, another compiler) must not load what plain ``cc`` left behind."""
    plain = kernels._find_compiler()
    wrapper = tmp_path / "wrapped-cc"
    wrapper.write_text(f'#!/bin/sh\nexec {plain} "$@"\n')
    wrapper.chmod(0o755)
    cache = tmp_path / "cache"
    for cc, artefacts in ((plain, 1), (str(wrapper), 2), (plain, 2)):
        assert _finish(_fresh_interpreter(cache, cc=cc))[0] == "native"
        assert len(os.listdir(cache)) == artefacts


@needs_compiler
def test_cc_may_carry_a_wrapper_and_arguments(tmp_path) -> None:
    """``$CC`` is a command line, as make reads it (``ccache cc``, ``gcc
    -m64``): its first word is the program and the rest go before our flags."""
    if shutil.which("env") is None:
        pytest.skip("no `env` to stand in for a compiler wrapper")
    plain = kernels._find_compiler()
    cache = tmp_path / "cache"
    for cc in (f"env {plain}", f"{plain} -Wall"):
        assert _finish(_fresh_interpreter(cache, cc=cc))[0] == "native"
    assert len(os.listdir(cache)) == 2  # still keyed by the $CC string


def test_unparsable_cc_falls_back_with_the_reason(
    empty_cache, monkeypatch
) -> None:
    monkeypatch.setenv("CC", 'cc "-O2')
    with pytest.warns(RuntimeWarning, match="cannot parse"):
        assert kernels.resolve_backend("auto").name == "numpy"


@needs_compiler
def test_concurrent_first_users_all_load_a_whole_library(tmp_path) -> None:
    racers = [_fresh_interpreter(tmp_path) for _ in range(4)]
    assert [_finish(racer)[0] for racer in racers] == ["native"] * 4
    (artefact,) = os.listdir(tmp_path)  # one library, no temporaries
    assert artefact.startswith("_viterbi-") and artefact.endswith(".so")


@needs_compiler
def test_build_leaves_the_checkout_clean() -> None:
    root = Path(repro.__file__).parents[2]
    if shutil.which("git") is None or not (root / ".git").exists():
        pytest.skip("not a git checkout")
    assert kernels.resolve_backend("native").name == "native"
    assert glob.glob(os.path.join(kernels._CACHE_DIR, "_viterbi-*.so"))
    status = subprocess.run(
        ["git", "status", "--porcelain", "--", kernels._CACHE_DIR],
        cwd=root, capture_output=True, text=True, check=True,
    )
    assert status.stdout == ""


@needs_compiler
def test_library_exports_exactly_what_the_backend_binds() -> None:
    """A function ``_viterbi.c`` stops exporting, or one that nothing binds
    any more, fails here rather than at first use."""
    nm = shutil.which("nm")
    if nm is None:
        pytest.skip("no `nm` to list the library's symbols")
    listed = subprocess.run(
        [nm, "-D", "--defined-only", kernels._load_native()._name],
        capture_output=True, text=True, check=True,
    ).stdout
    exported = {
        fields[2] for fields in map(str.split, listed.splitlines())
        if len(fields) == 3 and fields[1] == "T"
    }
    assert exported == set(kernels._SIGNATURES) == {
        "search_inputs", "search", "program", "decode", "levels",
        "wom_encode", "wom_decode", "search_vector_body", "page_vector_body",
        "payload",
    }


def test_every_page_code_kernel_takes_its_block_first() -> None:
    """One calling convention: each kernel a page code calls takes the code's
    parameter block, then the lane count, then arrays only, the block
    nowhere else; the level count, the payload and the two body queries
    take none."""
    page_kernels = {
        "search_inputs", "search", "program", "decode", "wom_encode", "wom_decode",
    }
    for name, signature in kernels._SIGNATURES.items():
        if name in page_kernels:
            assert signature[:2] == "bi" and "b" not in signature[1:], name
        else:
            assert "b" not in signature, name


@needs_compiler
def test_kernel_compiles_warning_free_by_a_relative_path() -> None:
    """From the checkout's root, by a path with a directory part, warnings as
    errors: the self-include must find the file however its path is spelled,
    and no program body or table builder may warn."""
    root = Path(repro.__file__).parents[2]
    source = os.path.relpath(kernels._SOURCE, root)
    assert os.path.dirname(source)
    built = subprocess.run(
        [kernels._find_compiler(), *kernels._compiler_words()[1:], "-O3",
         "-Wall", "-Wextra", "-Werror", "-fsyntax-only", source],
        cwd=root, capture_output=True, text=True,
    )
    assert built.returncode == 0, built.stderr
