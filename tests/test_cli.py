import gc
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from hecke5 import __version__, cli, quotients
from hecke5.cli import main
from hecke5.congruence import CongruenceReport, is_congruence
from hecke5.farey import parse_hfs, side_pairing
from hecke5.golden_ring import GoldenInt, Modulus
from hecke5.hecke_matrices import decompose
from hecke5.quotients import quotient_order

from test_farey import EXAMPLES

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuotient:
    @pytest.mark.parametrize("mod,order", [("1", 1), ("2", 10), ("8", 10240)])
    def test_rational_orders(self, capsys, mod, order):
        code, out, _ = invoke(capsys, "quotient", "--mod", mod)
        assert code == 0
        assert f"order {order}" in out

    def test_ideal_modulus(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "--ideal", "2+L")
        assert code == 0
        assert "order 60" in out

    @pytest.mark.parametrize("ideal,order", [("10*L", 75000), ("-3-L", 660)])
    def test_ideal_written_with_equals(self, capsys, ideal, order):
        # a value with a leading minus must be attached with "="
        code, out, _ = invoke(capsys, "quotient", f"--ideal={ideal}")
        assert code == 0
        assert f"order {order}" in out

    def test_homogeneous(self, capsys):
        code, out, _ = invoke(
            capsys, "quotient", "--mod", "6", "--homogeneous")
        assert code == 0
        assert "order 1200" in out

    def test_histogram(self, capsys):
        code, out, _ = invoke(
            capsys, "quotient", "--mod", "2", "--histogram")
        assert code == 0
        assert "element orders: 1:1, 2:5, 5:4" in out

    def test_histogram_mod_16(self, capsys):
        # pinned from the per-element orders; the counts sum to 655360
        code, out, err = invoke(capsys, "quotient", "--mod", "16",
                                "--histogram")
        assert (code, err) == (0, "")
        assert out == ("quotient mod 16: order 655360\n"
                       "element orders: 1:1, 2:5183, 4:19392, 5:16384, "
                       "8:122880, 10:49152, 16:245760, 20:196608\n")

    def test_histogram_cap_boundary(self, capsys):
        # |Q(8)| = 10240: the order array is refused one below it
        code, out, err = invoke(capsys, "quotient", "--mod", "8",
                                "--histogram", "--element-cap", "10239")
        assert (code, out) == (2, "")
        assert err == ("undecided: the kernel of Q(8) mod 1 has 10240 "
                       "elements, above the element cap of 10239\n")
        code, out, err = invoke(capsys, "quotient", "--mod", "8",
                                "--histogram", "--element-cap", "10240")
        assert (code, err) == (0, "")
        assert out == ("quotient mod 8: order 10240\n"
                       "element orders: 1:1, 2:383, 4:1920, 5:1024, 8:3840, "
                       "10:3072\n")

    def test_json_records(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "--mod", "2",
                              "--format", "json")
        assert code == 0
        header, rec = (json.loads(line) for line in out.strip().splitlines())
        assert header["record"] == "version"
        assert rec == {"record": "quotient", "modulus": "2",
                       "order": 10, "projective": True}

    def test_both_moduli_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "quotient", "--mod", "2", "--ideal", "2+L")
        assert exc.value.code == 1
        assert ("argument --ideal: not allowed with argument --mod"
                in capsys.readouterr().err)

    def test_missing_modulus(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "quotient")
        assert exc.value.code == 1
        assert ("one of the arguments --mod --ideal is required"
                in capsys.readouterr().err)

    def test_cap_hit_is_undecided(self, capsys):
        code, _, err = invoke(capsys, "quotient", "--mod", "8",
                              "--element-cap", "100")
        assert code == 2
        assert "undecided" in err

    def test_ring_cap_is_undecided_at_once(self, capsys):
        # every use of a quotient but its order builds 7 * ring_size
        # residue table entries, which count against the element cap
        start = time.perf_counter()
        code, out, err = invoke(capsys, "quotient", "--mod", "535")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("undecided: residue tables mod 535 need 2003575 entries, "
                       "above the element cap of 2000000\n")

    @pytest.mark.parametrize("option,value,modulus", [
        ("--mod", "32", Modulus.rational(32)),
        ("--mod", "33", Modulus.rational(33)),
        ("--mod", "534", Modulus.rational(534)),
        ("--ideal", "235-476*L", Modulus.ideal(GoldenInt(235, -476))),
    ])
    def test_order_needs_no_ring_squared_table(self, capsys, option, value,
                                               modulus):
        """`mul` and the row orbit (2 * ring_size**2 entries, above the cap
        for all four) are refused only where they are read; an order reads
        neither.  (235-476*L) is prime, of norm 283211."""
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "quotient", option, value)
        assert time.perf_counter() - start < 1
        assert (code, out) == (
            0, f"quotient mod {modulus}: order {quotient_order(modulus)}\n")

    def test_cache_options_are_gone(self, capsys):
        for argv in (["--cache-dir", "/tmp"], ["--no-cache"]):
            with pytest.raises(SystemExit) as exc:
                invoke(capsys, "quotient", "--mod", "8", *argv)
            assert exc.value.code == 1
            assert (f"unrecognized arguments: {argv[0]}"
                    in capsys.readouterr().err)

    def test_order_above_cap_is_undecided_at_once(self, capsys):
        # the histogram needs the elements; their number, 23392800, is known
        # before any is built
        start = time.perf_counter()
        code, out, err = invoke(capsys, "quotient", "--mod", "19",
                                "--histogram")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("undecided: the kernel of Q(19) mod 1 has 23392800 "
                       "elements, above the element cap of 2000000\n")

    def test_order_above_cap_is_answered(self, capsys):
        code, out, _ = invoke(capsys, "quotient", "--mod", "19")
        assert (code, out) == (0, "quotient mod 19: order 23392800\n")

    def test_histogram_above_cap_walks_no_orbit(self, capsys, monkeypatch):
        """The histogram is refused on the order alone, before the row orbit
        (seconds at mod 31) is walked; the number of elements is the order,
        above the cap or not."""
        def walk(q):
            raise AssertionError(f"walked the row orbit of Q({q.modulus})")

        monkeypatch.setattr(quotients, "_row_orbit", walk)
        code, out, err = invoke(capsys, "quotient", "--mod", "31",
                                "--histogram")
        assert (code, out) == (2, "")
        assert err == ("undecided: the kernel of Q(31) mod 1 has 442828800 "
                       "elements, above the element cap of 2000000\n")
        assert len(quotients.build_quotient(Modulus.rational(25))
                   .elements) == 117187500

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_input_error(self, capsys, cap):
        code, out, err = invoke(capsys, "quotient", "--mod", "8",
                                "--element-cap", cap)
        assert (code, out) == (1, "")
        assert err == f"error: element cap must be at least 1, not {cap}\n"


class TestClosure:
    def test_whole_quotient(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--mod", "2",
                              "--seed", "T")
        assert code == 0
        assert "order 10" in out
        assert "level 1" in out

    def test_trivial_closure(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--mod", "4",
                              "--seed", "T^4")
        assert code == 0
        assert "order 1" in out
        assert "level 4" in out

    def test_strict_subgroup_of_kernel(self, capsys):
        code, out, _ = invoke(capsys, "closure", "--mod", "8",
                              "--seed", "T^4", "--format", "json")
        assert code == 0
        rec = json.loads(out.strip().splitlines()[1])
        assert rec["order"] == 32
        assert rec["kernel_levels"] == []

    @pytest.mark.parametrize("mod,seed,order,levels", [
        ("16", "T^4", 2048, []), ("12", "T^6", 32, [6]), ("12", "T^2", 1920, [2]),
    ])
    def test_kernel_levels(self, capsys, mod, seed, order, levels):
        code, out, _ = invoke(capsys, "closure", "--mod", mod, "--seed", seed,
                              "--format", "json")
        assert code == 0
        rec = json.loads(out.strip().splitlines()[1])
        assert (rec["order"], rec["kernel_levels"]) == (order, levels)

    def test_element_cap_bounds_normal_closure(self, capsys, low_element_cap):
        # |Q(5)| = 7500, and T's normal closure is all of it
        code, out, _ = invoke(capsys, "closure", "--mod", "5", "--seed", "T",
                              "--element-cap", "10000")
        assert code == 0
        assert "order 7500" in out

    def test_kernel_above_the_cap_compares_by_its_order(self, capsys):
        # the kernel mod 1 is all 655360 elements of Q(16), above the cap;
        # it differs from the closure in order, so nothing is refused
        code, out, _ = invoke(capsys, "closure", "--mod", "16", "--seed",
                              "T^2", "--element-cap", "200000", "--format",
                              "json")
        assert code == 0
        rec = json.loads(out.strip().splitlines()[1])
        assert (rec["order"], rec["kernel_levels"]) == (65536, [2])

    def test_ideal_gets_kernel_levels(self, capsys):
        outs = [invoke(capsys, "closure", option, "4", "--seed", "T^2",
                       "--format", "json")[1].splitlines()[1]
                for option in ("--mod", "--ideal")]
        recs = [json.loads(out) for out in outs]
        assert recs[1]["modulus"] == "(4)"
        assert recs[1]["kernel_levels"] == recs[0]["kernel_levels"] == [2]

    def test_ring_squared_tables_are_refused_where_read(self, capsys):
        # the normal closure multiplies, so it reads `mul` mod 32
        start = time.perf_counter()
        code, out, err = invoke(capsys, "closure", "--mod", "32",
                                "--seed", "T^16")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("undecided: residue tables mod 32 need 2097152 entries, "
                       "above the element cap of 2000000\n")

    def test_bad_seed_word(self, capsys):
        code, _, err = invoke(capsys, "closure", "--mod", "2",
                              "--seed", "T^")
        assert code == 1
        assert "error" in err


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--lemma", "D1",
                              "--p", "3")
        assert code == 0
        assert "pass" in out

    def test_unknown_id_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "verify", "--lemma", "nope")
        assert exc.value.code == 1

    def test_quotient_options_rejected(self, capsys):
        # verify builds its quotients with the default caps and no disk cache
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "verify", "--lemma", "2.2", "--m", "7", "--p", "7",
                   "--element-cap", "5000000")
        assert exc.value.code == 1
        assert "unrecognized arguments: --element-cap" in capsys.readouterr().err

    def test_element_cap_is_undecided(self, capsys, low_element_cap):
        # the normal closure of T mod 7 is all 58800 elements of Q(7)
        code, out, err = invoke(capsys, "verify", "--lemma", "3.3",
                                "--m", "1", "--n", "7")
        assert code == 2
        assert out == ""
        assert err == (f"undecided: closure reached the element cap of "
                       f"{low_element_cap}\n")

    def test_outside_the_domain_is_an_input_error(self, capsys):
        code, out, err = invoke(capsys, "verify", "--lemma", "2.2",
                                "--m", "2", "--p", "2")
        assert (code, out) == (1, "")
        assert err == ("error: p must divide m, and 4 must divide m "
                       "when p = 2\n")

    def test_known_order_is_undecided_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--lemma", "D1", "--p", "211")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("undecided: SL(2, Z/211) has 9393720 elements, above "
                       "the element cap of 2000000\n")

    def test_index_formula_above_the_cap_is_undecided_at_once(self, capsys):
        # both counts would need ring_size**2 work: 10201**2 for (101)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "verify", "--lemma", "2.1",
                                "--a", "101")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == ("undecided: residue tables mod 101 need 208120802 "
                       "entries, above the element cap of 2000000\n")

    def test_needs_a_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            invoke(capsys, "verify")
        assert exc.value.code == 1
        assert ("one of the arguments --lemma --all is required"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv,err", [
        ("--lemma 2.6 --m 3", "check 2.6 takes parameters [], not ['m']"),
        ("--lemma 3.5 --m 1 --n 4",
         "check 3.5 takes parameters ['m'], not ['m', 'n']"),
        ("--lemma 2.2 --m 3", "check 2.2 takes parameters ['m', 'p'], "
                              "not ['m']"),
    ])
    def test_parameters_must_be_the_checks_own(self, capsys, argv, err):
        assert invoke(capsys, "verify", *argv.split()) == (1, "",
                                                           f"error: {err}\n")

    def test_all_takes_no_parameters(self, capsys):
        assert invoke(capsys, "verify", "--all", "--m", "3") == (
            1, "", "error: --all runs the default grids and takes no "
                   "parameters\n")

    def test_parameters_are_typed_by_the_check(self, capsys):
        code, out, err = invoke(capsys, "verify", "--lemma", "2.2",
                                "--m", "x", "--p", "3")
        assert (code, out) == (1, "")
        assert "invalid literal for int()" in err

    def test_all_matches_the_golden_text(self, capsys):
        code, out, err = invoke(capsys, "verify", "--all")
        assert (code, err) == (0, "")
        assert out == (DATA / "verify_all.txt").read_text()

    def test_all_matches_the_golden_json(self, capsys):
        # the version record heads the stream; the check records follow it
        code, out, err = invoke(capsys, "verify", "--all", "--format", "json")
        assert (code, err) == (0, "")
        head, *checks = out.splitlines()
        assert json.loads(head) == {"record": "version", "version": __version__}
        golden = (DATA / "verify_all.jsonl").read_text().splitlines()
        assert checks == golden[1:]

    @pytest.mark.parametrize("case", json.loads(
        (DATA / "verify_errors.json").read_text()),
        ids=lambda case: " ".join(case["argv"][2:]))
    def test_outside_the_domain_matches_the_golden_error(self, capsys, case):
        """One input outside each check's domain (2.6 takes no parameters)."""
        assert invoke(capsys, *case["argv"]) == (case["exit"], "",
                                                 case["stderr"])


def _over(n):
    return (f"undecided: SL(2, Z/{n}) has over {n}^3 / 2 elements, above the "
            f"element cap of 2000000\n")


@pytest.mark.parametrize("argv,code,err", [
    ("verify --lemma D1 --p 1000000000000000003", 2, _over(10**18 + 3)),
    ("verify --lemma D2 --m 1 --p 1000000000000000003", 2, _over(10**18 + 3)),
    ("verify --lemma 2.2 --m 3 --p 1000000000000000003", 1,
     "error: p must divide m, and 4 must divide m when p = 2\n"),
    ("verify --lemma W --r 1000000007 --s 1000000009", 2,
     _over(1000000016000000063)),
    ("verify --lemma D1 --p 1000000016000000063", 1,
     "error: p must be a prime\n"),
    # p | m is tested before Q(mp) is refused, and m is factored after
    ("verify --lemma A --m 3000000048000000189 --p 3", 2,
     "undecided: residue tables mod 9000000144000000567 need "
     "567000018144000216594001143072002250423 entries, above the element "
     "cap of 2000000\n"),
    ("congruence --gens T^1000000007", 1,
     "error: a generator word is longer than 1000000 letters S and T\n"),
    ("congruence --gens T^100000000", 1,
     "error: a generator word is longer than 1000000 letters S and T\n"),
])
def test_large_parameters_end_at_once(capsys, argv, code, err):
    """Neither p, r*s nor Lemma A's m is factored by trial division, and no
    generator word is expanded past the bound on its letters."""
    start = time.perf_counter()
    assert invoke(capsys, *argv.split()) == (code, "", err)
    assert time.perf_counter() - start < 5


class TestCongruence:
    def test_whole_group_from_generators(self, capsys):
        code, out, _ = invoke(capsys, "congruence", "--gens", "S",
                              "--gens", "T")
        assert code == 0
        assert "index 1" in out
        assert "verdict: congruence, algebraic level (1)" in out

    def test_symbol_input(self, capsys):
        code, out, _ = invoke(capsys, "congruence",
                              "--hfs", EXAMPLES["index2"][0])
        assert code == 0
        assert "index 2" in out
        assert "verdict: congruence" in out

    def test_symbol_file(self, capsys, tmp_path):
        path = tmp_path / "sub.hfs"
        path.write_text(EXAMPLES["i5-level4"][0])
        code, out, _ = invoke(capsys, "congruence", "--hfs-file", str(path))
        assert code == 0
        assert "verdict: not-congruence" in out

    def test_symbol_file_is_closed(self, capsys, tmp_path):
        path = tmp_path / "sub.hfs"
        path.write_text(EXAMPLES["index2"][0])
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, _, _ = invoke(capsys, "congruence", "--hfs-file", str(path))
            gc.collect()
        assert code == 0
        assert not [w for w in seen if issubclass(w.category, ResourceWarning)]

    def test_json_roundtrips_report(self, capsys):
        code, out, _ = invoke(capsys, "congruence", "--hfs", EXAMPLES["i5-level3"][0],
                              "--format", "json")
        assert code == 0
        rec = json.loads(out.strip().splitlines()[1])
        report = CongruenceReport.from_json(json.dumps(rec))
        assert report.verdict == "congruence"
        assert report.algebraic_level == "(3)"

    def test_exactly_one_source(self, capsys):
        for argv, err in [
                ((), "one of the arguments --hfs --hfs-file --gens is required"),
                (("--gens", "S", "--hfs", "[-inf; *; 0; o; inf]"),
                 "argument --hfs: not allowed with argument --gens")]:
            with pytest.raises(SystemExit) as exc:
                invoke(capsys, "congruence", *argv)
            assert exc.value.code == 1
            assert err in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, "congruence",
                              "--hfs-file", "/no/such/file")
        assert code == 1

    def test_symbol_outside_g5_is_an_input_error(self, capsys):
        # decompose raises NotInG5Error, a ValueError, on a side pairing; the
        # terminal matrix keeps the sign the pairing was built with
        code, out, err = invoke(capsys, "congruence",
                                "--hfs", "[-inf; o; 1; o; inf]")
        assert (code, out) == (1, "")
        assert err == ("error: terminal triangular matrix [[1-L,-2+L],[0,-L]] "
                       "has non-trivial unit\n")

    @pytest.mark.parametrize("gen", ["S", "T^2"])
    def test_infinite_index_is_undecided_in_bounded_time(self, capsys, gen):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "congruence", "--gens", gen)
        assert time.perf_counter() - start < 10
        assert code == 2
        assert "undecided: coset enumeration exceeded 5000 cosets" in err
        assert "--coset-cap" in err

    def test_large_coset_cap_is_bounded(self, capsys):
        start = time.perf_counter()
        code, _, err = invoke(capsys, "congruence", "--gens", "S",
                              "--coset-cap", "100000")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert "undecided: coset enumeration exceeded 100000 cosets" in err

    def test_coset_cap_option(self, capsys):
        code, _, err = invoke(capsys, "congruence", "--gens", "S",
                              "--coset-cap", "100")
        assert code == 2
        assert "exceeded 100 cosets" in err
        # an index-2 subgroup fits well inside a small cap
        code, out, _ = invoke(capsys, "congruence", "--hfs",
                              EXAMPLES["index2"][0], "--coset-cap", "100")
        assert code == 0
        assert "verdict: congruence" in out
        code, _, err = invoke(capsys, "congruence", "--gens", "S",
                              "--coset-cap", "0")
        assert code == 1
        assert "error: coset cap must be at least 1, not 0" in err


class TestCensus:
    def test_index_two(self, capsys):
        code, out, _ = invoke(capsys, "census", "--index", "2")
        assert code == 0
        assert "total: 1 subgroups of index 2" in out

    def test_index_five_rows(self, capsys):
        code, out, _ = invoke(capsys, "census", "--index", "5",
                              "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()[1:]]
        assert len(rows) == 26
        assert sum(r["normal"] for r in rows) == 1
        normal = next(r for r in rows if r["normal"])
        assert normal["geometric_level"] == 5
        assert normal["note"] == "unasserted"


    def test_index_five_text_unchanged(self, capsys):
        # rows come in the order of congruence._actions, this package's
        # own low-index search; re-recorded when it replaced sympy's
        code, out, _ = invoke(capsys, "census", "--index", "5")
        assert code == 0
        assert out == (DATA / "census_index5.txt").read_text()

    def test_rows_need_no_quotient(self, capsys, monkeypatch):
        """Census rows and congruence reports walk no row orbit: their
        quotient orders are `quotient_order`."""
        census = invoke(capsys, "census", "--index", "6")
        words = {name: [decompose(g) for g in side_pairing(parse_hfs(hfs))]
                 for name, (hfs, _, _) in EXAMPLES.items()}
        reports = {name: is_congruence(w) for name, w in words.items()}

        def row_orbit(*args, **kwargs):
            raise AssertionError("walked the row orbit of a quotient")

        monkeypatch.setattr(quotients, "_row_orbit", row_orbit)
        assert invoke(capsys, "census", "--index", "6") == census
        assert census[0] == 0
        assert {name: is_congruence(w) for name, w in words.items()} == reports

    def test_rows_printed_as_decided(self, capsys, monkeypatch):
        class Stop(Exception):
            pass

        decided = []

        def levels(table):
            if decided:
                # the first row must already be out when the second is decided
                assert capsys.readouterr().out.count("census-row") == 1
                raise Stop
            decided.append(table)
            return real(table)

        real = cli.levels
        monkeypatch.setattr(cli, "levels", levels)
        with pytest.raises(Stop):
            main(["census", "--index", "5", "--format", "json"])


@pytest.mark.parametrize("argv,builds", [
    (["quotient", "--mod", "16"], False),
    (["closure", "--mod", "16", "--seed", "T^4"], False),
    (["congruence", "--hfs", EXAMPLES["i5-level4"][0]], False),
    (["quotient", "--mod", "8", "--histogram"], False),
    (["verify", "--lemma", "2.3"], False),
])
def test_element_sets_built_only_when_read(capsys, monkeypatch, argv, builds):
    """Orders come from `quotient_order`, and kernels and the histogram's
    elements stream off the row orbit: no command builds the element set,
    the member set of the kernel mod 1, and only the histogram iterates it."""
    built, streamed = [], []
    one = Modulus.rational(1)

    def materialise(members):
        if members._m == one:
            if not builds:
                raise AssertionError(f"built the elements of "
                                     f"Q({members._q.modulus})")
            built.append(members._q.modulus)
        return real_set.func(members)

    def iterate(members):
        if members._m == one:
            streamed.append(members._q.modulus)
        return real_iter(members)

    real_set = quotients._KernelMembers.__dict__["_set"]
    real_iter = quotients._KernelMembers.__iter__
    monkeypatch.setattr(quotients._KernelMembers, "_set", property(materialise))
    monkeypatch.setattr(quotients._KernelMembers, "__iter__", iterate)
    assert invoke(capsys, *argv)[0] == 0
    assert bool(built) == builds
    assert bool(streamed) == (argv[-1] == "--histogram")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_start_up_imports_no_sympy():
    """The runtime has no dependency: a fresh `import hecke5.cli` leaves no
    sympy module behind (sympy serves the tests' oracles only)."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, hecke5.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'sympy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_a_closed_stdout_ends_quietly():
    """`census --index 7 | head -1`: the reader takes one row and closes the
    pipe, and the next row's write fails.  That ends the command with exit
    0 and nothing on stderr, not as an input error."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "hecke5.cli", "census", "--index", "7"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("#0: index 7")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")
