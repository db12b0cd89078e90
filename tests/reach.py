"""Which defs and lambdas of a set of source files a run never calls.

``functions`` compiles each file and walks the ``co_consts`` of its code
objects; ``calls`` records the code object of every Python frame a
callable enters, under ``sys.setprofile``.  A code object compiled from
the source compares equal to the one the imported module runs, so the
two meet in one set.  Stdlib only, so a fresh interpreter can install
the hook before it imports the modules it measures.

``CALLS`` lists every command the reproduction is run by, at small
depths: the reach guard runs them all in one interpreter, and
``outputs.py`` runs each in its own to record its bytes.
"""

import inspect
import sys
import types
from pathlib import Path

TRAIN = "experiment = toy_train\ndepths = 4\niterations = 2\n"
# (command, config text, expected exit code): each study experiment on each
# family and each profile it accepts (``index`` needs a one-parameter
# family), tightness, linflow, the three training modes and their second
# target, and one run voided by divergence (exit 3) and one outside the
# small-loss regime (exit 4).
CALLS = [("study", f"experiment = {experiment}\nfamily = {family}\n"
                   f"schedule_profile = {profile}\ndepths = 4, 8\n", 0)
         for experiment in ("approx_error", "euler_adjoint", "heun_adjoint")
         for family in ("mlp", "linear", "square", "identity")
         for profile in ("constant", "lipschitz_profile", "alternating", "index")
         if profile != "index" or family in ("square", "identity")]
CALLS += [
    ("tightness", "experiment = tightness_suite\ndepths = 4, 8\n", 0),
    ("linflow", "experiment = limit_map\ndepths = 4, 8, 16\nt_end = 0.1\n", 0),
    ("train", TRAIN, 0),
    ("train", TRAIN + "gradient_mode = adjoint_euler\ntarget = neg_square_half\n", 0),
    ("train", TRAIN + "gradient_mode = adjoint_heun\n", 0),
    ("study", "experiment = approx_error\nfamily = linear\n"
              "schedule_profile = constant\nprofile_scale = 1e4\ndepths = 4\n", 3),
    ("linflow", "experiment = limit_map\nprofile_scale = 1\ndepths = 4\n", 4),
]

# Comprehension bodies are code objects of their own, but not functions
# anyone defines or calls by name.
COMPREHENSIONS = frozenset({"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"})


def functions(path):
    """Each def and lambda compiled from the module at ``path``.  Class
    bodies (no ``CO_OPTIMIZED`` flag) and comprehensions are skipped."""
    path = str(Path(path).resolve())
    stack = [compile(Path(path).read_text(), path, "exec")]
    found = []
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                stack.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in COMPREHENSIONS:
                    found.append(const)
    return found


def calls(run):
    """Code objects of every Python frame entered while ``run()`` runs."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def uncalled(paths, seen):
    """{``module.qualname``: how many of its code objects are not in
    ``seen``} for every function in ``paths``; lambdas of one scope share
    a name, so a count can exceed 1, and 0 means every one was called."""
    seen = {(code.co_filename, code) for code in seen}
    counts = {}
    for path in paths:
        for code in functions(path):
            name = f"{Path(code.co_filename).stem}.{code.co_qualname}"
            counts[name] = counts.get(name, 0) + ((code.co_filename, code) not in seen)
    return counts
