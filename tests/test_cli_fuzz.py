"""Generated programs and argument vectors never crash the commands.

Two inputs besides instance files reach the program from outside: an
``eval`` program, and the argument vector itself.  One test draws
programs from a grammar over the expression language (bound and unbound
names, up and down indices, literals such as ``1/0`` and ``00``,
``d(...)``, signs, parentheses, one to three lines) and evaluates them
against a stored dim-2 pair.  The other draws argument vectors for all
four commands, with grid ranges whose bounds reach far past the labels.
Dims, draws and grids are bounded, so each example runs in milliseconds.

Every run exits 0, 1, 2 or 3 without an uncaught exception, and exits 1
only when its report holds a failed check.  At least a fifth of the
programs and of the vectors must exit 0, so the strategies keep reaching
past the error paths.
"""

import contextlib
import csv
import io
import json

from hypothesis import given, settings, strategies as st

from eqlab.cli import INSTANCE_OPTIONS, main
from eqlab.harness import synth_document
from eqlab.jets import MAX_DIM

DOCUMENT = json.dumps(synth_document(2, 1, seed=0))

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)


def run(argv):
    """Exit code, stdout and stderr of one in-process command; argparse's
    own exits (usage errors, ``-h``) count as exit codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in err
    if code in (2, 3) and not err.startswith("usage:"):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("eqlab:"), lines


# --- eval programs ---------------------------------------------------------

# the references a stored pair binds, by valence, with slots to fill
BOUND = {
    "_": ("Psi", "Nu", "BarPsi", "BarNu"),
    "^": ("Phi", "BarPhi"),
    "__": ("Sigma", "BarSigma"),
    "^_": ("delta",),
    "^__": ("Gamma", "GammaSym", "Torsion", "BarGamma", "BarTorsion"),
}
NAMES = "ijkmn"
LITERALS = ("2", "3/2", "00", "1/0", "0/5", "17")
# textual faults: a name that is not bound, a flipped variance, a stray
# sign, a literal, a cut line
FAULTS = (("Psi", "Foo"), ("^", "_"), ("_", "^"), ("Phi[", "-Phi["),
          ("2", "1/0"), ("*", "**"), ("]", ""), ("(", "(("), ("d(", "d(1,"))


@st.composite
def products(draw, free, refs, fresh):
    """A product whose free indices are ``free``: a few of the references
    ``refs`` (valence -> names) whose other slots are bound by fresh names,
    closed by rank-one factors."""
    want = list(free)  # (variance, name) still to be supplied
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        valence = draw(st.sampled_from(sorted(refs)))
        name = draw(st.sampled_from(refs[valence]))
        slots = []
        for variance in valence:
            match = [w for w in want if w[0] == variance]
            if match and draw(st.booleans()):
                want.remove(match[0])
                slots.append(match[0])
            else:
                index = next(fresh)
                slots.append((variance, index))
                want.append(("^" if variance == "_" else "_", index))
        factors.append(f"{name}[{','.join(v + n for v, n in slots)}]")
    for variance, index in want:
        factors.append(f"{BOUND[variance][0]}[{variance}{index}]")
    if draw(st.integers(0, 3)) == 0:
        factors.insert(0, draw(st.sampled_from(LITERALS)))
    return "*".join(draw(st.permutations(factors)))


@st.composite
def expressions(draw, free, refs, fresh, depth=0):
    """A sum of signed terms, each a product, a parenthesised expression
    or the derivative of one, all with the free indices ``free``."""
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        downs = [i for i in free if i[0] == "_"]
        choice = draw(st.integers(0, 4)) if depth < 2 else 0
        if choice == 1 and downs:
            k = draw(st.sampled_from(downs))
            inner = draw(expressions([i for i in free if i != k], refs,
                                     fresh, depth + 1))
            terms.append(f"d({inner},_{k[1]})")
        elif choice == 2:
            terms.append(f"({draw(expressions(free, refs, fresh, depth + 1))})")
        else:
            terms.append(draw(products(free, refs, fresh)))
    signs = [draw(st.sampled_from((" + ", " - "))) for _ in terms[1:]]
    return terms[0] + "".join(s + t for s, t in zip(signs, terms[1:]))


@st.composite
def programs(draw):
    """One to three assignments; a later line may read an earlier one, and
    a line may carry one textual fault."""
    refs = dict(BOUND)
    lines = []
    for number in range(draw(st.integers(1, 3))):
        free = draw(st.lists(st.tuples(st.sampled_from("^_"),
                                       st.sampled_from(NAMES)),
                             max_size=3, unique_by=lambda i: i[1]))
        fresh = iter(f"a{k}" for k in range(1000))
        rhs = draw(expressions(free, refs, fresh))
        target = f"A{number}"
        line = f"{target}[{','.join(v + n for v, n in free)}] = {rhs}"
        if draw(st.integers(0, 2)) == 0:
            old, new = draw(st.sampled_from(FAULTS))
            line = line.replace(old, new, 1)
        lines.append(line)
        if free:
            valence = "".join(v for v, _ in free)
            refs[valence] = (*refs.get(valence, ()), target)
    return "\n".join(lines)


def test_generated_program_exits_cleanly(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(DOCUMENT)
    source = tmp_path / "program.txt"
    codes = []

    @FUZZ
    @given(program=programs())
    def check(program):
        source.write_text(program)
        code, out, err = run(["eval", str(source), "--instance", str(pair)])
        codes.append(code)
        # eval decides no check, so it never exits 1
        assert code in (0, 2, 3), code
        assert_clean_exit(code, err)
        if code == 0:
            results = json.loads(out)["results"]
            targets = {line.split("=")[0].split("[")[0].strip()
                       for line in program.splitlines()}
            assert set(results) <= targets

    check()
    # a grammar that yields only refused programs would test the error
    # paths alone; 25 of the 100 programs evaluate
    assert codes.count(0) * 5 >= len(codes), codes


# --- argument vectors ------------------------------------------------------

def values(valid, invalid):
    """An option's values: ones the command accepts, and ones it refuses."""
    return st.sampled_from(valid), st.sampled_from(invalid)


LABEL = st.integers(1, 8).map(str)
# a range runs low to high
BOUNDS = st.lists(st.integers(1, 8), min_size=2, max_size=2).map(sorted)
IN_RANGE = BOUNDS.map("{0[0]}..{0[1]}".format) | LABEL
REVERSED = BOUNDS.filter(lambda b: b[0] < b[1]).map("{0[1]}..{0[0]}".format)
HUGE = st.sampled_from((10 ** 7, 10 ** 15, -10 ** 15, 10 ** 40, 0, 9)).map(str)
OUT_OF_RANGE = (st.builds("{}..{}".format, LABEL | HUGE, HUGE)
                | st.builds("{}..{}".format, HUGE, LABEL) | HUGE | REVERSED)


def grids(labels):
    one = st.lists(labels, min_size=1, max_size=2).map(",".join)
    return one | st.builds("{}:{}".format, one, one)


OPTIONS = {
    "--dim": values(("2",), ("1", "-2", "x", "", "2.5", str(MAX_DIM + 1),
                             "9" * 30)),
    "--kind": values(("1", "2"), ("3", "x")),
    "--order": values(("2", "3"), ("4", "x")),
    "--seed": values(("0", "1", "-1", "9" * 20), ("x", "")),
    "--seeds": values(("0", "0,1"), ("1,,2", "x", "")),
    "--grid": (grids(IN_RANGE), grids(IN_RANGE | OUT_OF_RANGE)
               | st.sampled_from(("", ":", "1:2:3", "a..b", "1..", "..2"))),
    "--draws": values(("1", "2"), ("0", "x")),
    "--trials": values(("1", "2"), ("0", "x")),
    "--format": values(("json", "csv"), ("xml",)),
    "--corrupt": values(("psi-sign",), ("none",)),
    # placeholders for files in the example's directory
    "--out": values(("@report",), ("@dir", "@missing/report.json")),
    "--instance": values(("@pair",), ("@missing.json", "@dir", "@text")),
    "program": values(("@program",), ("@missing.txt", "@text", "@dir")),
}
JUNK = st.sampled_from(("--bogus", "-h", "extra", "--dim", "--grid"))

# per command: the options always given, which bound the work (the
# instance options may be left out beside ``--instance``), and the options
# given or not
COMMANDS = {
    "synth": (("--dim",), ("--kind", "--order", "--seed", "--seeds", "--out")),
    "verify": (("--dim", "--draws"),
               ("--kind", "--order", "--seed", "--seeds", "--grid",
                "--corrupt", "--instance", "--out")),
    "ranks": (("--dim", "--trials"),
              ("--order", "--seed", "--format", "--out")),
    "eval": (("program", "--dim"),
             ("--kind", "--order", "--seed", "--instance", "--out")),
}


@st.composite
def argument_vectors(draw):
    """A command's options, at most one of them refused, in any order, and
    now and then one stray argument."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    chosen = list(required) + [flag for flag in optional if draw(st.booleans())]
    if "--instance" in chosen and draw(st.booleans()):
        # the file states its own instance
        chosen = [flag for flag in chosen
                  if flag.removeprefix("--") not in INSTANCE_OPTIONS]
    faulty = draw(st.none() | st.sampled_from(chosen))
    if {"--seed", "--seeds"} <= set(chosen) and faulty not in ("--seed", "--seeds"):
        chosen.remove("--seeds")
    pairs = [[flag, draw(OPTIONS[flag][flag == faulty])] for flag in chosen]
    positional = [value for flag, value in pairs if flag == "program"]
    options = draw(st.permutations([p for p in pairs if p[0] != "program"]))
    argv = [command, *positional, *(token for pair in options for token in pair)]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    return argv


def failed_checks(text, command, csv_format):
    """The failed check names of a verify or ranks report."""
    if csv_format:
        rows = list(csv.DictReader(io.StringIO(text)))
        return [row["check"] for row in rows if row["pass"] != "true"]
    doc = json.loads(text)
    rows = doc["checks"] if command == "verify" else doc["rows"]
    return [row["check"] for row in rows if not row["pass"]]


def test_generated_argument_vector_exits_cleanly(tmp_path):
    files = {"pair": DOCUMENT, "text": "not json\n",
             "program": "A[_i] = Psi[_i] + 2*Sigma[_i,_a]*Phi[^a]\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "dir").mkdir()
    report = tmp_path / "report"
    codes = []

    @FUZZ
    @given(argv=argument_vectors())
    def check(argv):
        report.unlink(missing_ok=True)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a
                for a in argv]
        code, out, err = run(argv)
        codes.append(code)
        assert_clean_exit(code, err)
        command = argv[0]
        if (code not in (0, 1) or command not in ("verify", "ranks")
                or "-h" in argv):
            assert code != 1, (argv, err)
            return
        text = report.read_text() if str(report) in argv else out
        failed = failed_checks(text, command, "csv" in argv)
        assert bool(failed) == (code == 1), (argv, failed)

    check()
    # 25 of the 100 vectors run their command through (exit 0)
    assert codes.count(0) * 5 >= len(codes), codes
