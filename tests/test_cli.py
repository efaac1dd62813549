import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from pjsat import cspec, jsem, solver
from pjsat.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestSat:
    def test_sat_exit_zero(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 p1 & P>=1/2 ~p1\n")
        assert main(["sat", f]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SAT\n")
        assert "check PASS" in out

    def test_unsat_exit_one(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1 p1 & ~P>=1/2 p1\n")
        assert main(["sat", f]) == 1
        assert capsys.readouterr().out.strip() == "UNSAT"

    def test_parse_error_exit_two(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>= p1\n")
        assert main(["sat", f]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sat", "valid", "atoms", "jsat"])
    def test_cap_exceeded_exit_three(self, tmp_path, capsys, command):
        body = "p1 & p2 & p3 & p4"
        text = body if command == "jsat" else f"P>=1/2 ({body})"
        f = write(tmp_path, "f.pj", text + "\n")
        assert main([command, f, "--cap", "3"]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("P>=3/2 p1", "threshold 3/2 outside [0,1] (at position 3)"),
            ("P>=2 p1", "threshold 2/1 outside [0,1] (at position 3)"),
            ("P>=1/1 p1 & P>=7/3 p2", "threshold 7/3 outside [0,1] (at position 15)"),
        ],
    )
    def test_threshold_above_one_exit_two(self, tmp_path, capsys, text, message):
        f = write(tmp_path, "f.pj", text + "\n")
        assert main(["sat", f]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_threshold_zero_over_five_is_sat(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=0/5 p1\n")
        assert main(["sat", f]) == 0
        assert capsys.readouterr().out.startswith("SAT\n")

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["sat", str(tmp_path / "absent.pj")]) == 2

    def test_non_utf8_file_exit_two(self, tmp_path, capsys):
        p = tmp_path / "f.pj"
        p.write_bytes(b"P>=1/2 p1  # caf\xe9\n")
        assert main(["sat", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_exit_two(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 " + "~" * 5000 + "p1\n")
        assert main(["sat", f]) == 2
        assert "error:" in capsys.readouterr().err

    def test_comments_stripped(self, tmp_path):
        f = write(tmp_path, "f.pj", "# goal\nP>=1/2 p1  # half\n")
        assert main(["sat", f]) == 0

    def test_dump_lp(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 p1\n")
        assert main(["sat", f, "--dump-lp"]) == 0
        out = capsys.readouterr().out
        assert "= 1" in out and ">= 1/2" in out

    def test_model_out_then_check(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 p1 & P>=1/2 ~p1\n")
        mpath = str(tmp_path / "m.out")
        assert main(["sat", f, "--model-out", mpath]) == 0
        capsys.readouterr()
        assert main(["check", f, "--model", mpath]) == 0
        assert capsys.readouterr().out.strip() == "check PASS"


class TestValid:
    def test_not_valid(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        assert main(["valid", f]) == 1
        assert capsys.readouterr().out.strip() == "NOT-VALID"

    def test_valid(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "~(P>=1 p1 & ~P>=1 p1)\n")
        assert main(["valid", f]) == 0
        assert tuple(capsys.readouterr()) == ("VALID\n", "")


class TestJsat:
    def test_sat(self, tmp_path, capsys):
        f = write(tmp_path, "f.j", "t:p1 & ~s:p1\n")
        assert main(["jsat", f]) == 0
        assert capsys.readouterr().out.strip() == "SAT"

    def test_unsat_trap(self, tmp_path, capsys):
        f = write(tmp_path, "f.j", "s:~(p1 & ~p2) & t:p1 & ~(s.t):p2\n")
        assert main(["jsat", f]) == 1
        assert capsys.readouterr().out.strip() == "UNSAT"


class TestAtoms:
    def test_listing(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 p1\n")
        assert main(["atoms", f]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("atom 1 ")
        assert all(" jsat: " in l or " junsat: " in l for l in lines)

    def test_accepts_plain_justification_formula(self, tmp_path, capsys):
        f = write(tmp_path, "f.j", "t:p1\n")
        assert main(["atoms", f]) == 0
        # basis is {p1, t:p1}, hence four atoms
        assert len(capsys.readouterr().out.strip().splitlines()) == 4

    @pytest.mark.parametrize(
        "text, parser",
        [
            ("P>=2 p1", "sat"),
            ("P>=1/2 p1 & P>=1/0 p2", "sat"),
            ("P>=1/2 (p1 &", "sat"),
            ("t:p1 & (", "jsat"),
        ],
    )
    def test_reports_the_parse_that_got_further(self, tmp_path, capsys, text, parser):
        # atoms tries both parsers; its error is that of the one that read
        # further, as sat (probability) or jsat (justification) reports it
        f = write(tmp_path, "f.pj", text + "\n")
        assert main([parser, f]) == 2
        expected = capsys.readouterr().err
        assert expected.startswith("error: ")
        assert main(["atoms", f]) == 2
        assert capsys.readouterr().err == expected

    def test_cap_checked_before_the_filter_is_built(self, tmp_path, capsys, monkeypatch):
        # compiling the J-filter over an over-cap basis could take long;
        # the cap must refuse the formula first
        def no_filter(basis, cs):
            raise AssertionError("jsat_test called on an over-cap basis")

        monkeypatch.setattr("pjsat.cli.jsat_test", no_filter)
        text = " & ".join(f"P>=1/2 t{i}:p1" for i in range(1, 31))
        f = write(tmp_path, "f.pj", text + "\n")
        assert main(["atoms", f]) == 3
        assert "enumeration cap is 20" in capsys.readouterr().err


class TestCheck:
    def test_bad_model_fails(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        m = write(
            tmp_path, "m.out",
            "SAT\nworld 1 weight 1 atom ~p1\ncheck PASS\n",
        )
        assert main(["check", f, "--model", m]) == 1
        captured = capsys.readouterr()
        assert captured.out.strip() == "check FAIL"
        assert captured.err

    def test_malformed_model_exit_two(self, tmp_path):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        m = write(tmp_path, "m.out", "who knows\n")
        assert main(["check", f, "--model", m]) == 2

    def test_repeated_atom_literal_exit_two(self, tmp_path, capsys):
        # the world atom names p1 twice; neither sign may silently win
        f = write(tmp_path, "f.pj", "P>=1 ~p1\n")
        m = write(
            tmp_path, "m.out",
            "SAT\nworld 1 weight 1 atom p1 & ~p1\ncheck PASS\n",
        )
        assert main(["check", f, "--model", m]) == 2
        captured = capsys.readouterr()
        assert "check PASS" not in captured.out
        assert "error:" in captured.err


    @pytest.mark.parametrize(
        "atom, message",
        [
            ("~~p1", "not an atom literal: ~~p1"),
            ("p1 & p2", "atom literal outside basis: p2"),
            ("p1 & p1", "atom names p1 twice"),
        ],
    )
    def test_atom_errors_print_formulas(self, tmp_path, capsys, atom, message):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        m = write(tmp_path, "m.out", f"SAT\nworld 1 weight 1 atom {atom}\n")
        assert main(["check", f, "--model", m]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCsLoading:
    def test_custom_cs_changes_verdict(self, tmp_path, capsys):
        # without SUM_L instances, c1 can justify nothing here
        cs = write(tmp_path, "cs.txt", "[schematic]\nc1 : SUM_L\n")
        f = write(tmp_path, "f.j", "~c1:(x1:p1 -> (x1+x2):p1)\n")
        assert main(["jsat", f, "--cs", cs]) == 1
        capsys.readouterr()
        empty = write(tmp_path, "empty.txt", "[schematic]\n")
        assert main(["jsat", f, "--cs", empty]) == 0

    def test_validation_failure_exit_two(self, tmp_path, capsys):
        cs = write(tmp_path, "cs.txt", "[schematic]\nc1 : SUM_L\nc1 : SUM_R\n")
        f = write(tmp_path, "f.j", "t:p1\n")
        assert main(["jsat", f, "--cs", cs, "--require-injective"]) == 2
        assert "c1" in capsys.readouterr().err

    def test_default_cs_is_validated_under_both_flags(self, tmp_path, capsys, monkeypatch):
        # the default CS goes through the same validation as a loaded one,
        # and passes both checks
        calls = []
        real = cspec.validate

        def counted(cs, **flags):
            calls.append(flags)
            return real(cs, **flags)

        monkeypatch.setattr(cspec, "validate", counted)
        f = write(tmp_path, "f.pj", "P>=1/2 p1 & P>=1/2 ~p1\n")
        assert main(["sat", f, "--require-injective", "--require-appropriate"]) == 0
        assert capsys.readouterr().out.startswith("SAT\n")
        assert calls == [{"require_injective": True, "require_appropriate": True}]

    def test_bad_cs_file_exit_two(self, tmp_path):
        cs = write(tmp_path, "cs.txt", "c1 : APP\n")
        f = write(tmp_path, "f.j", "t:p1\n")
        assert main(["jsat", f, "--cs", cs]) == 2


BIG = "1" * 5000  # past CPython's default 4300-digit int-string limit


class TestLongNumerals:
    @pytest.mark.parametrize(
        "command, formula, model, cs",
        [
            ("sat", f"P>=1/{BIG} p1", None, None),
            ("valid", f"P>=1/{BIG} p1", None, None),
            ("sat", f"P>=1/2 p{BIG}", None, None),
            ("jsat", f"x{BIG}:p1", None, None),
            ("check", "P>=1/2 p1", f"SAT\nworld 1 weight 1/{BIG} atom p1\n", None),
            ("sat", "P>=1/2 p1", None, f"[finite]\nc : p{BIG}\n"),
        ],
        ids=["sat-threshold", "valid-threshold", "prop", "var", "model-weight", "cs-entry"],
    )
    def test_exit_two_without_traceback(self, tmp_path, capsys, command, formula, model, cs):
        argv = [command, write(tmp_path, "f.pj", formula + "\n")]
        if model is not None:
            argv += ["--model", write(tmp_path, "m.out", model)]
        if cs is not None:
            argv += ["--cs", write(tmp_path, "cs.txt", cs)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    # each numeral is under the limit, but the model's weights are not
    A, B = "7" + "3" * 2501, "9" + "1" * 2501

    @pytest.mark.parametrize(
        "command, formula, model, flags",
        [
            ("sat", f"P>=1/{A} p1 & P>=1/{B} p2 & ~P>=1/2 (p1 & p2) & P>=1/{A} (p1 & ~p2)", None, []),
            ("sat", f"P>=1/{A} p1 & P>=1/{B} p2 & ~P>=1/2 (p1 & p2) & P>=1/{A} (p1 & ~p2)", None, ["--dump-lp"]),
            ("check", "P>=0 p1", f"SAT\nworld 1 weight 1/{A} atom p1\nworld 2 weight 1/{B} atom ~p1\n", []),
        ],
        ids=["sat", "sat-dump-lp", "check-weight-sum"],
    )
    def test_long_output_number_exit_three(self, tmp_path, capsys, command, formula, model, flags):
        argv = [command, write(tmp_path, "f.pj", formula + "\n")] + flags
        if model is not None:
            argv += ["--model", write(tmp_path, "m.out", model)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err
        assert "SAT" not in captured.out and "check" not in captured.out


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_flag(self, tmp_path):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        assert main(["sat", f, "--frobnicate"]) == 2

    def test_cap_below_one(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1 p1\n")
        for cap in ("0", "-1"):
            assert main(["sat", f, "--cap", cap]) == 2
            assert "--cap" in capsys.readouterr().err

    def test_cap_only_where_it_bounds_an_enumeration(self, tmp_path, capsys):
        f = write(tmp_path, "f.pj", "P>=1/2 p1 & P>=1/2 ~p1\n")
        mpath = str(tmp_path / "m.out")
        assert main(["sat", f, "--model-out", mpath, "--cap", "3"]) == 0
        assert main(["check", f, "--model", mpath, "--cap", "3"]) == 2
        assert "--cap" in capsys.readouterr().err


class Case(NamedTuple):
    files: dict  # name -> formula or model text; argv names the files
    argv: list
    code: int
    out: tuple  # the stdout lines; a last ... stands for any lines after
    err: str = ""  # a pattern that all of stderr must match
    walk: int | None = None  # at most this many predicate tests in each Boolean walk


# The command line's end-to-end cases; TestEndToEnd.test_case runs each in-process
CASES = {
    "justified-bodies": Case(
        {"f.pj": "P>=1/2 p1 & P>=1/3 t:(p1 -> p2) & ~P>=1/4 (s.t):p2"}, ["sat", "f.pj"], 0,
        ("SAT", ...)),
    "jsat-taut1-twice": Case(
        {"f.j": "~(c_taut1.c_taut1):(p2 -> (p1 -> (p3 -> p1)))"}, ["jsat", "f.j"], 1, ("UNSAT",)),
    "p-level-contradiction": Case({"f.pj": "P>=1 p1 & ~P>=1 p1"}, ["sat", "f.pj"], 1, ("UNSAT",)),
    # phase 2 ends with an artificial basic at 0
    "strict-artificial-at-zero": Case(
        {"f.pj": "P>=1 p1 & ~P>=1 (p1 & p2)"}, ["sat", "f.pj"], 0, ("SAT", ...)),
    # three rows start on their slacks and one on an artificial
    "slack-starts": Case(
        {"f.pj": "P>=0 p1 & ~P>=1 p1 & ~P>=1/2 ~p1"}, ["sat", "f.pj"], 0, ("SAT", ...)),
    # refused at the cap, before the J-filter is built
    "atoms-6000-assertions": Case(
        {"f.pj": " & ".join(f"P>=1/2 t{i}:p1" for i in range(1, 6001))}, ["atoms", "f.pj"], 3, (),
        r"error: .*enumeration cap is 20\n"),
    "check-reverse-basis-order": Case(
        {"f.pj": "P>=1/2 (p1 & p2)", "m.out": "SAT\nworld 1 weight 1 atom p2 & p1"},
        ["check", "f.pj", "--model", "m.out"], 0, ("check PASS",)),
    "dump-lp-two-lower-bounds": Case(
        {"f.pj": "P>=1/3 p1 & P>=1/2 p1 & ~P>=3/4 p1"}, ["sat", "f.pj", "--dump-lp"], 0,
        ("1*z1 + 1*z2 = 1", "1*z1 >= 1/3", "1*z1 >= 1/2", "1*z1 < 3/4", "SAT", ...)),
    "bound-repeats-total-row": Case(
        {"f.pj": "P>=1/2 p1 & ~P>=1/2 (p1 | ~p1)"}, ["sat", "f.pj"], 1, ("UNSAT",)),
    "stray-character": Case(
        {"f.pj": "P>=1/2 p1 $"}, ["sat", "f.pj"], 2, (),
        r"error: unexpected character '\$' \(at position 10\)\n"),
    "nested-first-group": Case({"f.pj": "P>=1/2 ((s.t)).u:p1"}, ["sat", "f.pj"], 0, ("SAT", ...)),
    "p-level-j-connectives": Case(
        {"f.pj": "~(P<1/2 p1 & ~P>=1/3 (p1 & p2))"}, ["sat", "f.pj"], 0, ("SAT", ...)),
    "valid-strict-bounds": Case(
        {"f.pj": "~(P<1/2 p1 & ~P<1/2 p1)"}, ["valid", "f.pj"], 0, ("VALID",)),
    # the clash table refutes the one assignment, so no system is built or printed
    "dump-lp-refuted-pair": Case(
        {"f.pj": "P>=1 ~p1 & P>=1/2 p1"}, ["sat", "f.pj", "--dump-lp"], 1, ("UNSAT",)),
    # a system that only a tableau refutes is still built and printed
    "dump-lp-tableau-refuted": Case(
        {"f.pj": "P>=3/4 p1 & ~P>=1/3 (p1 | p2)"}, ["sat", "f.pj", "--dump-lp"], 1,
        ("1*z1 + 1*z2 + 1*z3 = 1", "1*z1 >= 3/4", "1*z1 + 1*z2 < 1/3", "UNSAT")),
    # each walk drops every prefix that falsifies its predicate
    "walk-200-negated-literals": Case(
        {"f.pj": " & ".join(f"~P>={j}/201 p1" for j in range(1, 201))}, ["sat", "f.pj"], 0,
        ("SAT", ...), walk=2 * 200 + 1),
    # a 280-deep application chain: the occurs-check walks the goal with no recursion
    "chain-280-c-taut1": Case(
        {"f.pj": "P>=1/2 ~" + ".".join(["c_taut1"] * 280) + ":p1"}, ["sat", "f.pj"], 0,
        ("SAT", ...)),
    "walk-jsat-cap-24": Case(
        {"f.j": " & ".join(f"p{i}" for i in range(1, 25)) + " & ~p1"},
        ["jsat", "f.j", "--cap", "24"], 1, ("UNSAT",), walk=2 * 24 + 1),
}


class TestEndToEnd:
    @pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
    def test_case(self, tmp_path, capsys, monkeypatch, case):
        def bounded(walk):  # fails the walk at its (case.walk + 1)-th predicate test
            def counted(holds, n, fixed=()):
                tests = itertools.count(1)

                def test(values):
                    assert next(tests) <= case.walk, "the walk tests too many prefixes"
                    return holds(values)

                return walk(test, n, fixed)

            return counted

        if case.walk is not None:
            for module in (solver, jsem):
                monkeypatch.setattr(module, "assignments", bounded(module.assignments))
        paths = {name: write(tmp_path, name, text + "\n") for name, text in case.files.items()}
        argv = [paths.get(a, a) for a in case.argv]
        model = tmp_path / "model.out"
        if argv[0] == "sat":
            argv += ["--model-out", str(model)]
        assert main(argv) == case.code
        out, err = capsys.readouterr()
        lines, expected = out.splitlines(), list(case.out)
        if expected[-1:] == [...]:
            expected.pop()
            lines = lines[:len(expected)]
        assert lines == expected
        assert re.fullmatch(case.err, err)
        assert "Traceback" not in err
        if argv[0] == "sat" and case.code == 0:
            # the model passes check, and fails it with its first weight doubled
            check = ["check", argv[1], "--model", str(model)]
            assert main(check) == 0
            assert tuple(capsys.readouterr()) == ("check PASS\n", "")
            text = model.read_text()
            w = re.search(r"^world 1 weight (\S+)", text, re.M)
            model.write_text(text[:w.start(1)] + str(2 * Fraction(w[1])) + text[w.end(1):])
            assert main(check) == 1
            out, err = capsys.readouterr()
            assert out == "check FAIL\n"
            assert re.search(r"^weights sum to ", err, re.M)
            assert "Traceback" not in err

    def test_module_entry_point(self, tmp_path):
        f = write(tmp_path, "f.pj", "P>=1 p1 & ~P>=1 p1\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "pjsat.cli", "sat", f],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (1, "UNSAT\n", "")
