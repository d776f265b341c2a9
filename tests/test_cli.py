import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wqograph
from wqograph import antichains
from wqograph.classifier import OPEN_BOTH_PAIRS, OPEN_CW_PAIRS, OPEN_WQO_PAIRS
from wqograph.cli import BUDGET_ENV, _patterns, main, parse_graph_arg
from wqograph.graphs import build, decode_graph6, encode_graph6, to_json_dict
from wqograph.uniform import UniformWitness, verify_witness
from oracles import oracle_room, oracle_template_from_json


class TestGraphArgs:
    def test_expression(self):
        assert parse_graph_arg("P4") == build("P4")

    def test_g6_prefix(self):
        assert parse_graph_arg("g6:" + encode_graph6(build("C5"))) == build("C5")

    def test_inline_json(self):
        assert parse_graph_arg('{"n": 2, "edges": [[0, 1]]}') == build("P2")

    def test_file(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(encode_graph6(build("C4")) + "\n")
        assert parse_graph_arg("@" + str(path)) == build("C4")


class TestCommands:
    def test_gen_g6(self, capsys):
        assert main(["gen", "--spec", "P3"]) == 0
        assert decode_graph6(capsys.readouterr().out.strip()) == build("P3")

    def test_gen_family(self, capsys):
        assert main(["gen", "--family", "thm51", "--n", "2", "--format", "json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["n"] == 8

    def test_embed_found(self, capsys):
        assert main(["embed", "--h", "P4", "--g", "P6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["found"]

    def test_embed_not_found(self, capsys):
        assert main(["embed", "--h", "C5", "--g", "C6"]) == 1

    def test_embed_empty_pattern_json(self, capsys):
        assert main(["embed", "--h", "g6:?", "--g", "P3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["found"] and blob["embedding"] == []

    @pytest.mark.parametrize("forbidden", [",", ""])
    def test_free_without_patterns_exit_2(self, capsys, forbidden):
        assert main(["free", "--g", "P5", "--forbidden", forbidden]) == 2
        captured = capsys.readouterr()
        assert "names no pattern" in captured.err and "free" not in captured.out

    def test_free_violation_exit_1(self, capsys):
        assert main(["free", "--g", "P6", "--forbidden", "P4,K3", "--json"]) == 1
        blob = json.loads(capsys.readouterr().out)
        assert blob["pattern"] == "P4" and len(blob["witness"]) == 4

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_free_biclique_pattern(self, capsys, flags):
        """The comma inside K2,2 does not split the list."""
        assert main(["free", "--g", "C4", "--forbidden", "K2,2", *flags]) == 1
        out = capsys.readouterr().out
        if flags:
            assert json.loads(out)["pattern"] == "K2,2"
        else:
            assert out == "contains K2,2 at [0, 1, 2, 3]\n"

    @pytest.mark.parametrize(
        "forbidden, patterns",
        [
            ("K1,3,P5", ["K1,3", "P5"]),
            ("S1,1,2,P4", ["S1,1,2", "P4"]),
            ("K2,3P1", ["K2", "3P1"]),
            ("K3,P4", ["K3", "P4"]),
            ("co(K1,3+P2), K2, 2", ["co(K1,3+P2)", "K2,2"]),
        ],
    )
    def test_free_list_split(self, capsys, forbidden, patterns):
        """Each pattern of the list is found in a host that holds it alone:
        the list splits into exactly ``patterns``."""
        assert _patterns(forbidden) == patterns
        for index, expr in enumerate(patterns):
            code = main(["free", "--g", expr, "--forbidden", forbidden, "--json"])
            assert code == 1
            assert json.loads(capsys.readouterr().out)["pattern"] in patterns[: index + 1]

    def test_free_malformed_subdivided_claw_exit_2(self, capsys):
        assert main(["free", "--g", "P4", "--forbidden", "S1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "S1,1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_antichain_verify_claw(self, capsys):
        args = ["antichain", "verify", "--family", "thm52", "--n", "3", "--forbidden", "K1,3"]
        assert main(args + ["--json"]) == 1
        (cell,) = json.loads(capsys.readouterr().out)["freeness"]
        assert cell["pattern"] == "K1,3" and not cell["free"]
        assert main(args) == 1
        assert "n=3 K1,3: VIOLATED" in capsys.readouterr().out

    def test_antichain_verify(self, capsys):
        code = main(
            [
                "antichain",
                "verify",
                "--family",
                "thm51",
                "--n",
                "2..3",
                "--forbidden",
                "co(2P1+P2),P2+P4,P6",
                "--json",
            ]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ok"] and blob["ns"] == [2, 3]

    def test_uniform(self, capsys):
        assert main(["uniform", "--g", "2K2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["uniformicity"] == 2

    @pytest.mark.parametrize("expr, order", [("K4", 1), ("2K2", 2), ("C5", 3), ("C5+P3", 4)])
    def test_uniform_witness_verifies(self, capsys, expr, order):
        assert main(["uniform", "--g", expr, "--kmax", "4", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["uniformicity"] == order
        template = oracle_template_from_json(blob["witness"])
        witness = UniformWitness(template, tuple(map(tuple, blob["witness"]["assign"])))
        assert template.k == order and verify_witness(build(expr), witness).ok

    def test_uniform_refutes_12_vertices(self, capsys):
        assert main(["uniform", "--g", "P6+P6", "--kmax", "3"]) == 1
        assert capsys.readouterr().out.startswith("not k-uniform")

    def test_ops_script(self, capsys):
        script = '[{"op":"bc","x":[0,2],"y":[1,3]}]'
        assert main(["ops", "--in", "C4", "--script", script]) == 0
        out = capsys.readouterr().out.strip()
        assert decode_graph6(out).edge_count() == 0

    def test_ops_script_from_file(self, capsys, tmp_path):
        script = '[{"op":"sc","s":[0,1,2]},{"op":"del","v":3}]'
        assert main(["ops", "--in", "C5", "--script", script]) == 0
        inline = capsys.readouterr().out
        path = tmp_path / "script.json"
        path.write_text(script + "\n")
        assert main(["ops", "--in", "C5", "--script", "@" + str(path)]) == 0
        assert capsys.readouterr().out == inline

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "--family", "thm51"], "gen: --family requires --n"),
            (["gen"], "gen: provide --spec or --family/--n"),
        ],
        ids=["family-without-n", "bare"],
    )
    def test_gen_without_graph_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == message and captured.out == ""

    def test_audit(self, capsys):
        assert main(["audit"]) == 0
        *rows, last = capsys.readouterr().out.strip().splitlines()
        assert last == "ok"
        assert len(rows) == len(OPEN_WQO_PAIRS) + len(OPEN_CW_PAIRS) + len(OPEN_BOTH_PAIRS)
        assert all(row.endswith(("): Open", "): wqo=Open cw=Open")) for row in rows)

    def test_audit_json(self, capsys):
        assert main(["audit", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["command"] == "audit" and blob["ok"] is True
        assert [tuple(row[:2]) for row in blob["wqo_open"]] == list(OPEN_WQO_PAIRS)
        assert [tuple(row[:2]) for row in blob["cw_open"]] == list(OPEN_CW_PAIRS)
        assert [tuple(row[:2]) for row in blob["both_open"]] == list(OPEN_BOTH_PAIRS)
        assert all(row[2:] == ["Open"] for row in blob["wqo_open"] + blob["cw_open"])
        assert all(row[2:] == ["Open", "Open"] for row in blob["both_open"])

    def test_decompose_json(self, capsys):
        assert main(["decompose", "--in", "K5+3P1", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "K5" and blob["ok"]

    def test_decompose_c5_case4_stated_order(self, capsys):
        # c5_instance(59): a case-4 member whose X (16..19) is large
        g6 = "g6:ShedDA_I@OD?cFcNQBc_w????????????"
        assert main(["decompose", "--in", g6, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "C5" and blob["case"] == 4 and blob["ok"]
        part = blob["parts"][0]
        detail = part["detail"]
        assert detail["order"] == detail["stated_order"] == 13
        assert not {"order_bound", "route"} & set(detail)
        assert blob["sets"]["X"] == [16, 17, 18, 19] == part["vertices"][-4:]
        assert [cls for _, cls in detail["witness"]["assign"][-4:]] == [12] * 4

    def test_decompose_class_violation(self, capsys):
        assert main(["decompose", "--in", "P2+P3"]) == 1

    def test_decompose_sparse(self, capsys):
        assert main(["decompose", "--in", "P5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["branch"] == "Sparse"

    def test_classify_json(self, capsys):
        code = main(
            ["classify", "--h1", "co(2P1+P2)", "--h2", "P2+P3", "--json"]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["wqo"] == "WqoLabelled" and blob["rule"] == "T6.1-1(iv)"
        assert blob["cw"] == "Bounded" and blob["cw_rule"] == "T6.2-1(iv)"

    def test_classify_reads_graph_arguments(self, capsys, tmp_path):
        """Both graphs go through the graph-argument grammar: on every pair
        of the three open lists, the ``g6:`` form and an ``@file`` JSON form
        print what the catalog expressions print."""
        for h1, h2 in OPEN_WQO_PAIRS + OPEN_CW_PAIRS + OPEN_BOTH_PAIRS:
            assert main(["classify", "--h1", h1, "--h2", h2, "--json"]) == 0
            expected = capsys.readouterr().out
            g6, files = [], []
            for side, expr in (("h1", h1), ("h2", h2)):
                g = build(expr)
                g6.append("g6:" + encode_graph6(g))
                path = tmp_path / f"{side}.json"
                path.write_text(json.dumps(to_json_dict(g)))
                files.append("@" + str(path))
            for a, b in (g6, files):
                assert main(["classify", "--h1", a, "--h2", b, "--json"]) == 0
                assert capsys.readouterr().out == expected, (h1, h2, a, b)

    def test_classify_empty_graph(self, capsys):
        assert main(["classify", "--h1", "g6:?", "--h2", "P3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["h1"] == "?" and blob["wqo"] == "WqoLabelled"
        assert blob["warnings"]  # the empty graph embeds into every graph

    def test_bad_expression_exit_2(self, capsys):
        assert main(["gen", "--spec", "S2,1,1"]) == 2

    def test_empty_expression_exit_2(self, capsys):
        assert main(["embed", "--h", "", "--g", "C5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: expected P/C/K/S atom, 'co(' or '(' at position 0 in ''\n"
        assert captured.out == ""

    def test_over_cap_exit_2(self, capsys):
        assert main(["gen", "--spec", "65P1"]) == 2
        err = capsys.readouterr().err
        assert "exceeds the cap of 64" in err and "Traceback" not in err

    def test_selftest_subset(self, capsys):
        assert main(["selftest", "--only", "C1,C3"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    @pytest.mark.parametrize("only", ["C99", "c1", "", "C1,C99"])
    def test_selftest_unknown_ids_exit_2(self, capsys, only):
        """An ``--only`` value that names no known criterion runs nothing
        and exits 2 with the valid ids, never a vacuous pass."""
        assert main(["selftest", "--only", only]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --only") and captured.out == ""
        assert "C1, C2, C3, C4, C5, C6, C7, C8, C9, C10" in captured.err

    @pytest.mark.parametrize("content", ["", " \n\n\t\n"], ids=["empty", "blank"])
    def test_empty_graph_file_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "g.g6"
        path.write_text(content)
        assert main(["embed", "--h", "P2", "--g", "@" + str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: empty graph6 string")
        assert captured.out == ""

    def test_python_m_runs_main(self, capsys):
        """``python -m wqograph`` is ``cli.main``: same exit code, same
        stdout (on two quick criteria, to keep the suite short)."""
        args = ["selftest", "--json", "--only", "C1,C10"]
        src = os.path.dirname(os.path.dirname(wqograph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "wqograph", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert main(args) == done.returncode == 0
        assert done.stdout == capsys.readouterr().out

    def test_json_deterministic(self, capsys):
        args = ["classify", "--h1", "K3", "--h2", "P6", "--json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


class TestBudgetAndRange:
    ANTICHAIN = ["antichain", "verify", "--family", "thm51", "--n", "2..3", "--json"]

    def test_zero_budget_is_zero(self, capsys):
        assert main(["embed", "--h", "P4", "--g", "P6", "--budget", "0"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_host_orbits_fit_a_smaller_budget(self, capsys):
        # P1+2P2 is not in thm52(12).  The search spends 510 nodes to show
        # it; without dropping roots in the host's orbits it spent 8,444,
        # and this budget ran out.
        g6 = encode_graph6(antichains.gen_thm52(12))
        assert main(["embed", "--h", "P1+2P2", "--g", "g6:" + g6, "--budget", "2000"]) == 1
        assert capsys.readouterr().out.strip() == "no induced embedding"
        assert main(["embed", "--h", "P1+2P2", "--g", "g6:" + g6, "--budget", "509"]) == 2

    def test_projected_trigger_fits_a_smaller_budget(self, capsys):
        # C7+P1 is not in C10, and the room check leaves it to the search.
        # The first root fails after 11 nodes; at that rate the ten roots
        # would take more than 8**2, so the host's orbits start at once, and
        # C10's one orbit drops every root left.  Waiting for 64 spent nodes
        # instead, the search took 66.
        assert oracle_room(build("C7+P1"), build("C10"))
        assert main(["embed", "--h", "C7+P1", "--g", "C10", "--budget", "11"]) == 1
        assert capsys.readouterr().out.strip() == "no induced embedding"
        assert main(["embed", "--h", "C7+P1", "--g", "C10", "--budget", "10"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_room_check_spends_no_node(self, capsys):
        # 2m(C8) = 16 is the sum of eight degrees of the connected C9, so
        # some edge would leave the image: refused before the search
        assert not oracle_room(build("C8"), build("C9"))
        assert main(["embed", "--h", "C8", "--g", "C9", "--budget", "0"]) == 1
        assert capsys.readouterr().out.strip() == "no induced embedding"

    def test_zero_budget_from_environment(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "0")
        assert main(["free", "--g", "P6", "--forbidden", "P4"]) == 2

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_negative_budget_exit_2(self, capsys, monkeypatch, where):
        args = ["embed", "--h", "P4", "--g", "P6"]
        if where == "flag":
            args += ["--budget", "-1"]
        else:
            monkeypatch.setenv(BUDGET_ENV, "-1")
        assert main(args) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_antichain_reads_environment_budget(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV, "0")
        assert main(self.ANTICHAIN) == 2  # every searched cell exhausted: unknown
        blob = json.loads(capsys.readouterr().out)
        assert not blob["ok"]
        # the decider knows the diamond and spends no node on its cells; P2+P4,
        # P6 and the incomparability cells need the search
        for cell in blob["freeness"]:
            diamond = cell["pattern"] == "co(2P1+P2)"
            assert (cell["free"], cell["exhausted"]) == (diamond, not diamond)
        assert all(c["exhausted"] for c in blob["incomparability"])

    def test_free_verdict_needs_no_budget(self, capsys):
        # The decider knows the diamond, so a zero budget decides this cell;
        # the search alone spends 13 nodes on it.  The decider does not know
        # P1+2P2, the gem or P2+P4: on thm52(12), which is free of all three,
        # they exhaust the budget at their first node.
        g6 = encode_graph6(antichains.gen_thm51(12))
        args = ["free", "--g", "g6:" + g6, "--forbidden", "co(2P1+P2)", "--budget", "0"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == "free\n" and not captured.err
        args[2] = "g6:" + encode_graph6(antichains.gen_thm52(12))
        for searched in ("P1+2P2", "co(P1+P4)", "P2+P4"):
            assert main(args[:4] + [searched, "--budget", "0"]) == 2
            err = capsys.readouterr().err.strip()
            assert err == "budget: search budget exhausted after 1 nodes"

    def test_antichain_default_budget(self, capsys, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV, raising=False)
        seen = []
        real = antichains.verify_family

        def spy(family, ns, forbidden=None, node_budget=None):
            seen.append(node_budget)
            return real(family, ns, forbidden, node_budget)

        monkeypatch.setattr(antichains, "verify_family", spy)
        assert main(self.ANTICHAIN) == 0
        assert main(self.ANTICHAIN + ["--budget", "7"]) == 2
        assert seen == [antichains.DEFAULT_CELL_BUDGET, 7]

    @pytest.mark.parametrize("ns", ["5..2", ",", ""])
    def test_antichain_empty_range_exit_2(self, capsys, ns):
        args = ["antichain", "verify", "--family", "thm51", "--n", ns]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "names no parameter values" in captured.err and "ok" not in captured.out

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--family", "thm52", "--n", "3..4", "--forbidden", ","], "names no pattern"),
            (["--family", "thm51", "--n", "2", "--forbidden", ""], "names no pattern"),
            (["--family", "cycles", "--n", "4"], "has no cell to check"),
        ],
    )
    def test_antichain_nothing_to_check_exit_2(self, capsys, extra, message):
        assert main(["antichain", "verify", *extra]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "ok" not in captured.out

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_uniform_kmax_below_one_exit_2(self, capsys, kmax):
        assert main(["uniform", "--g", "C5", "--kmax", kmax]) == 2
        captured = capsys.readouterr()
        assert "kmax must be positive" in captured.err and "not k-uniform" not in captured.out

    def test_uniform_budget_exhausted_exit_2(self, capsys):
        assert main(["uniform", "--g", "C5", "--budget", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("budget: ") and not captured.out

    def test_uniform_two_lift_budget_exit_2(self, capsys):
        # a 2-lift of K_8: sixteen vertices in eight two-vertex fibres
        g6 = "OKhTIpdebTQiXUehJJLLK"
        assert main(["uniform", "--g", "g6:" + g6, "--kmax", "10", "--budget", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("budget: ") and not captured.out


class TestOpScriptVertices:
    @pytest.mark.parametrize(
        "script,message",
        [
            ('[{"op":"sc","s":["a"]}]', "step 0: vertex 'a'"),
            ('[{"op":"bc","x":[0,1.5],"y":[2]}]', "step 0: vertex 1.5"),
            ('[{"op":"sc","s":[-1]}]', "step 0: vertex -1"),
            ('[{"op":"sc","s":[true]}]', "step 0: vertex True"),
            ('[{"op":"del","v":true}]', "step 0: vertex True"),
            ('[{"op":"sc","s":[0,1]},{"op":"del","v":"3"}]', "step 1: vertex '3'"),
        ],
    )
    def test_rejected_exit_2(self, capsys, script, message):
        assert main(["ops", "--in", "P5", "--script", script]) == 2
        err = capsys.readouterr().err
        assert f"{message} is not a non-negative integer" in err
        assert "Traceback" not in err

    def test_plain_int_vertices_accepted(self, capsys):
        script = '[{"op":"sc","s":[0,1]},{"op":"del","v":4}]'
        assert main(["ops", "--in", "P5", "--script", script, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4


class TestSizesRefusedBeforeBuilding:
    """Sizes above the vertex cap are refused where they are read, with a
    message and exit 2, before anything of that size is allocated."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ("embed --h P1 --g P1000000", "1000000 exceeds the cap of 64 vertices"),
            ("embed --h P1 --g 1000000P1", "1000000 exceeds the cap of 64 vertices"),
            ("gen --family thm52 --n 1000000", "over the cap of 64"),
            ("gen --family cycles --n 1000000", "over the cap of 64"),
            ("antichain verify --family cycles --n 4..1000000", "1000000 is outside 0..64"),
            ("antichain verify --family cycles --n=-1000000..4", "-1000000 is outside"),
            ("antichain verify --family thm51 --n 2,65", "65 is outside 0..64"),
            ('ops --in P3 --script [{"op":"sc","s":[1000000]}]', "vertex 1000000 exceeds"),
            ('embed --h P1 --g {"n":1000000,"edges":[]}', "must be an integer in 0..64"),
        ],
    )
    def test_exit_2(self, capsys, args, message):
        assert main(args.split()) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


class TestExpressionIntegers:
    """Only ASCII digits make an integer; each input exits 2 with a
    positioned message."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("P\u0663", "expected an integer at position 1"),
            ("P\u00b2", "expected an integer at position 1"),
            ("P" + "9" * 5000, "exceeds the cap of 64 vertices at position 5001"),
        ],
        ids=["arabic-indic-3", "superscript-2", "5000-nines"],
    )
    def test_exit_2(self, capsys, spec, message):
        assert main(["gen", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert message in captured.err


class TestMalformedJsonGraph:
    @pytest.mark.parametrize(
        "text",
        [
            '{"n":3,"edges":[[0,"a"]]}',
            '{"n":3,"edges":5}',
            '{"n":3,"edges":[null]}',
            '{"n":[1],"edges":[]}',
            '{"n":3,"edges":[[0,1.0]]}',
            '{"n":2.7,"edges":[]}',
            '{"n":true,"edges":[]}',
            '{"n":2,"edges":[[true,false]]}',
        ],
    )
    def test_exit_2(self, capsys, text):
        assert main(["embed", "--h", "P1", "--g", text]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: graph JSON") and captured.out == ""


class TestNoTraceback:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--spec", "(" * 400 + "P1" + ")" * 400],
            ["embed", "--h", "P1", "--g", '{"n":1,"edges":' + "[" * 10**5 + "]" * 10**5 + "}"],
            ["ops", "--in", "P3", "--script", "[" * 10**5 + "]" * 10**5],
            ["ops", "--in", "P3", "--script", "5"],
            ["ops", "--in", "P3", "--script", '{"op":"sc","s":[0]}'],
        ],
        ids=["deep-expression", "deep-json-graph", "deep-script", "int-script", "dict-script"],
    )
    def test_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_missing_script_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        assert main(["ops", "--in", "P3", "--script", "@" + str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(missing) in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 70)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(list("nsxyv") + ["op", "edges"]), inner, max_size=4),
    max_leaves=12,
)
SMALL_INTS = st.integers(-2, 8)
EDGE_LISTS = st.lists(st.lists(SMALL_INTS, max_size=3), max_size=5)
JSON_GRAPHS = st.fixed_dictionaries(
    {
        "n": st.one_of(st.integers(0, 8), JSON_VALUES),
        "edges": st.one_of(EDGE_LISTS, JSON_VALUES),
    }
)
STEPS = st.fixed_dictionaries(
    {"op": st.sampled_from(["sc", "bc", "del", "cut"])},
    optional={
        "s": st.one_of(st.lists(SMALL_INTS, max_size=4), JSON_VALUES),
        "x": st.one_of(st.lists(SMALL_INTS, max_size=3), JSON_VALUES),
        "y": st.one_of(st.lists(SMALL_INTS, max_size=3), JSON_VALUES),
        "v": st.one_of(SMALL_INTS, JSON_VALUES),
    },
)


class TestFuzz:
    """Any input text exits 0, 1 or 2 without an uncaught exception, and
    exit 2 always comes with a message."""

    @staticmethod
    def check(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith(("error: ", "budget: ")) and not out
        else:
            assert out
        assert "Traceback" not in err

    @given(st.text(alphabet="PCKS0123456789,+() co\t", max_size=16) | st.text(max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_expression_text(self, text):
        self.check(["embed", "--h", "P1", "--g=" + text.lstrip("@{g")])

    @given(st.text(alphabet=[chr(c) for c in range(58, 130)], max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_graph6_text(self, text):
        self.check(["embed", "--h", "P1", "--g", "g6:" + text])

    @given(
        st.text(alphabet=[chr(c) for c in range(58, 130)] + list(" \t\n{}"), max_size=12)
        | st.text(max_size=8)
    )
    @settings(max_examples=150, deadline=None)
    def test_graph_file_text(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.check(["embed", "--h", "P1", "--g", "@" + path])

    @given(st.one_of(JSON_GRAPHS, JSON_VALUES.filter(lambda v: isinstance(v, dict))))
    @settings(max_examples=150, deadline=None)
    def test_json_graph(self, obj):
        self.check(["embed", "--h", "P1", "--g=" + json.dumps(obj)])

    @given(st.one_of(st.lists(STEPS, max_size=3), JSON_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_op_script(self, script):
        self.check(["ops", "--in", "P5", "--script=" + json.dumps(script)])
