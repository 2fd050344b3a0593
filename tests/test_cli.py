"""Tests for the command-line front end."""

import json
import math
import os
import re
import shlex
from pathlib import Path

import pytest

from tautrels import cli
from tautrels.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(out):
    """The emitted JSON payload: the first stdout line."""
    return json.loads(out.strip().splitlines()[0])


class TestRelationsGen:
    def test_genus3_codim2_single_relation_rank_one(self, capsys, tmp_path):
        out = tmp_path / "rel.json"
        code, _, _ = run(capsys, "relations", "gen", "--genus", "3",
                         "--codim", "2", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["relations"]) == 1
        assert data["rank"] == 1
        assert data["generators"] > 0

    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_stdout_holds_only_the_payload(self, capsys, mode):
        code, out, err = run(capsys, "--log", mode, "relations", "gen",
                             "--genus", "3", "--codim", "2")
        assert code == 0
        assert len(out.splitlines()) == 1
        assert payload(out)["rank"] == 1
        [event] = err.splitlines()
        if mode == "json":
            assert json.loads(event)["command"] == "relations gen"
        else:
            assert event.startswith("command=relations gen ")

    def test_violated_inequality_named_exit_2(self, capsys):
        code, _, err = run(capsys, "relations", "gen", "--genus", "3",
                           "--codim", "1")
        assert code == 2
        assert "3r >= g+1+|S| violated" in err

    def test_genus2_codim1_is_boundary_supported(self, capsys):
        code, out, _ = run(capsys, "relations", "gen", "--genus", "2",
                           "--codim", "1", "--construction", "fz")
        assert code == 0
        terms = payload(out)["relations"][0]["terms"]
        assert any(t["graph"]["edges"] for t in terms)

    def test_primitive_flag_clears_denominators(self, capsys):
        code, out, _ = run(capsys, "relations", "gen", "--genus", "3",
                           "--codim", "2", "--primitive")
        assert code == 0
        terms = payload(out)["relations"][0]["terms"]
        nums = [int(t["num"]) for t in terms]
        assert all(t["den"] == "1" for t in terms)
        assert math.gcd(*nums) == 1

    def test_sigma_selects_extended_construction(self, capsys):
        code, out, _ = run(capsys, "relations", "gen", "--genus", "2",
                           "--codim", "2", "--sigma", "1")
        assert code == 0
        data = payload(out)
        assert data["construction"] == "extended"
        assert data["generators"] > 0

    @pytest.mark.parametrize("construction,default,other", [
        ("open-sq", "-1", "1"),
        ("boundary-sq", "1", "-1"),
    ])
    def test_omitted_signs_keep_construction_defaults(self, capsys,
                                                      construction, default,
                                                      other):
        argv = ("relations", "gen", "--genus", "2", "--codim", "2",
                "--construction", construction, "--d", "1", "--weights", "1",
                "--a", "1")

        def gen(*signs):
            code, out, err = run(capsys, *argv, *signs)
            assert code == 0, err
            return out.splitlines()[0]

        bare = gen()
        assert bare == gen("--half-sign", default, "--pd-sign", default)
        assert bare != gen("--half-sign", other, "--pd-sign", other)

    @pytest.mark.parametrize("construction,flags,flag", [
        ("open-fz", ("--sigma", "4"), "--sigma"),
        ("open-sq", ("--sigma", "1"), "--sigma"),
        ("boundary-sq", ("--sigma", "1"), "--sigma"),
        ("boundary-sq", ("--subset", "1", "--weights", "1"), "--subset"),
        ("open-sq", ("--subset", "1", "--weights", "1"), "--subset"),
        ("fz", ("--d", "2", "--a", "5"), "--d"),
        ("fz", ("--a", "5"), "--a"),
        ("open-fz", ("--half-sign", "1"), "--half-sign"),
        ("extended", ("--sigma", "1", "--pd-sign", "-1"), "--pd-sign"),
        ("fz", ("--d", "0"), "--d"),
    ])
    def test_unread_flag_exits_2(self, capsys, construction, flags, flag):
        code, out, err = run(capsys, "relations", "gen", "--genus", "3",
                             "--codim", "2", "--construction", construction,
                             *flags)
        assert code == 2
        assert f"{flag} is not read by the {construction} construction" in err
        assert out == ""

    def test_open_sq_construction(self, capsys):
        code, out, _ = run(capsys, "relations", "gen", "--genus", "3",
                           "--codim", "2", "--construction", "open-sq",
                           "--d", "1")
        assert code == 0
        assert payload(out)["generators"] > 0


class TestVerify:
    def test_series_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "series", "--quick")
        assert code == 0
        assert "ok=True" in out

    def test_rows_stay_on_stdout(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "chain",
                             "--genus", "3")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert all(line.startswith("check=") for line in lines[:-1])
        assert re.fullmatch(r"passed=(\d+) total=\1", lines[-1])

    def test_chain_suite_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "chain", "--genus", "3")
        assert code == 0

    def test_pushforward_suite_passes(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "pushforward",
                         "--d", "2")
        assert code == 0

    def test_seed_and_quick_reach_the_series_suite(self, capsys,
                                                   monkeypatch):
        # flags not given keep identity_suite's own defaults
        seen = []
        monkeypatch.setattr(cli, "identity_suite",
                            lambda **kwargs: seen.append(kwargs) or [])
        for argv in [("--seed", "7", "verify", "--suite", "series"),
                     ("verify", "--suite", "series", "--quick")]:
            assert run(capsys, *argv)[0] == 0
        assert seen == [{"seed": 7}, {"quick": True}]

    def test_json_log_is_one_object_per_line(self, capsys):
        code, out, _ = run(capsys, "--log", "json", "verify", "--suite",
                           "chain", "--genus", "3")
        assert code == 0
        for line in out.strip().splitlines():
            assert isinstance(json.loads(line), dict)


class TestSeriesDump:
    def test_hypergeometric_head(self, capsys):
        code, out, _ = run(capsys, "series", "dump", "--name", "A",
                           "--orders", "t=10")
        assert code == 0
        data = payload(out)
        assert len(data["terms"]) == 11
        first, second = data["terms"][0], data["terms"][1]
        assert (first["num"], first["den"]) == ("1", "1")
        assert (second["num"], second["den"]) == ("5", "6")

    def test_edge_table_indexed_by_signs(self, capsys):
        code, out, _ = run(capsys, "series", "dump", "--name", "DeltaE",
                           "--orders", "t=8")
        assert code == 0
        table = payload(out)["table"]
        assert sorted(tuple(e["zeta"]) for e in table) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1)
        ]
        names = [s["var"] for s in table[0]["ring"]]
        assert names == ["t", "psi1", "psi2"]

    def test_truncated_cache_entry_is_recomputed(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("TAUTRELS_CACHE", str(tmp_path))
        argv = ("series", "dump", "--name", "A", "--orders", "t=4")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        entry = tmp_path / "A_t4.json"
        entry.write_text(entry.read_text()[:40])
        code, second, err = run(capsys, *argv)
        assert code == 0, err
        assert payload(second) == payload(first)
        assert json.loads(entry.read_text())["terms"]

    def test_wrong_length_cache_entry_is_recomputed(self, capsys, tmp_path,
                                                     monkeypatch):
        # an exponent list of two entries in the one-variable ring of A
        monkeypatch.setenv("TAUTRELS_CACHE", str(tmp_path))
        argv = ("series", "dump", "--name", "A", "--orders", "t=4")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        entry = tmp_path / "A_t4.json"
        good = entry.read_text()
        blob = json.loads(good)
        blob["terms"][1]["exp"] = [1, 0]
        entry.write_text(json.dumps(blob))
        code, second, err = run(capsys, *argv)
        assert code == 0, err
        assert second == first
        assert entry.read_text() == good

    def test_cache_dir_precedence_holds_per_call(self, capsys, tmp_path,
                                                 monkeypatch):
        # TAUTRELS_CACHE is the one cache source: --cache-dir and --config
        # exit 2 and write nothing, and no call changes the environment
        monkeypatch.setenv("TAUTRELS_CACHE", str(tmp_path / "env"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cache_dir": str(tmp_path / "config")}))
        dump = ("series", "dump", "--name", "A", "--orders", "t=4")
        for argv in [("--cache-dir", str(tmp_path / "flag")) + dump,
                     ("--config", str(cfg)) + dump]:
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
            assert not list(tmp_path.glob("*/A_t4.json"))
        code, _, err = run(capsys, *dump)
        assert code == 0, err
        written = [p.parent.name for p in tmp_path.glob("*/A_t4.json")]
        assert written == ["env"]
        assert os.environ["TAUTRELS_CACHE"] == str(tmp_path / "env")

    @pytest.mark.parametrize("argv,condition", [
        (("--name", "A", "--orders", "t=1,t=2"), "order t is given twice"),
        (("--name", "A", "--orders", "t=4,z=2"),
         "order z is not read by series A"),
        (("--name", "DeltaE", "--orders", "t=2,x=5"),
         "order x is not read by series DeltaE"),
        (("--name", "Phi", "--orders", "t=3,x=1,t=3"),
         "order t is given twice"),
        (("--name", "C", "--i", "2", "--orders", "t=4,x=1"),
         "order x is not read by series C2"),
        (("--name", "A", "--i", "3", "--orders", "t=4"),
         "--i is not read by series A"),
        (("--name", "Edge3", "--i", "1", "--orders", "t=4"),
         "--i is not read by series Edge3"),
    ])
    def test_unread_order_or_flag_exits_2(self, capsys, tmp_path,
                                          monkeypatch, argv, condition):
        monkeypatch.setenv("TAUTRELS_CACHE", str(tmp_path))
        code, out, err = run(capsys, "series", "dump", *argv)
        assert code == 2
        assert condition in err
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_unknown_name_exit_2(self, capsys):
        code, _, err = run(capsys, "series", "dump", "--name", "nope",
                           "--orders", "t=4")
        assert code == 2
        assert "unknown series" in err


class TestRank:
    def test_duplicated_relation_has_rank_one(self, capsys, tmp_path):
        out = tmp_path / "rel.json"
        run(capsys, "relations", "gen", "--genus", "3", "--codim", "2",
            "--out", str(out))
        rel = json.loads(out.read_text())["relations"][0]
        batch = tmp_path / "two.json"
        batch.write_text(json.dumps([rel, rel]))
        code, text, _ = run(capsys, "rank", "--batch", str(batch))
        assert code == 0
        assert payload(text)["rank"] == 1

    def test_wall_fz_and_open_fz_share_their_space(self, capsys, tmp_path):
        # on the wall 1/2 + 1/2 = 1 both constructions keep the weights
        # they are given, so their relations make one batch
        relations = []
        for construction in ("fz", "open-fz"):
            out = tmp_path / f"{construction}.json"
            code, _, _ = run(capsys, "relations", "gen", "--genus", "2",
                             "--codim", "2", "--weights", "1/2,1/2",
                             "--subset", "1", "--construction", construction,
                             "--out", str(out))
            assert code == 0
            [rel] = json.loads(out.read_text())["relations"]
            assert rel["weights"] == [["1", "2"], ["1", "2"]]
            relations.append(rel)
        batch = tmp_path / "wall.json"
        batch.write_text(json.dumps({"relations": relations}))
        code, text, err = run(capsys, "rank", "--batch", str(batch))
        assert code == 0, err
        assert payload(text)["relations"] == 2

    def test_mixed_codimension_batch_rejected(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "relations", "gen", "--genus", "3", "--codim", "2",
            "--out", str(a))
        run(capsys, "relations", "gen", "--genus", "2", "--codim", "1",
            "--out", str(b))
        batch = tmp_path / "mixed.json"
        batch.write_text(json.dumps([
            json.loads(a.read_text())["relations"][0],
            json.loads(b.read_text())["relations"][0],
        ]))
        code, _, err = run(capsys, "rank", "--batch", str(batch))
        assert code == 2
        assert "mixed-codimension" in err


class TestConfig:
    """The JSON config file is gone: ``--config`` exits 2 through argparse
    whatever the file holds, and prints nothing."""

    def config_exits_2(self, capsys, tmp_path, data, *argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unknown_key_rejected(self, capsys, tmp_path):
        self.config_exits_2(capsys, tmp_path, {"cache_dirr": "x"},
                            "verify", "--suite", "chain")

    @pytest.mark.parametrize("key", ["threads", "output"])
    def test_removed_keys_rejected(self, capsys, tmp_path, key):
        self.config_exits_2(capsys, tmp_path, {key: 2, "log": "json"},
                            "relations", "gen", "--genus", "3", "--codim", "2")


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ("--threads", "2", "relations", "gen", "--genus", "3", "--codim", "2"),
        ("verify", "--suite", "series", "--order", "12"),
        ("relations", "rank", "--batch", "batch.json"),
        ("classes", "rank", "--batch", "batch.json"),
        ("relations", "verify-chain", "--genus", "3"),
    ])
    def test_usage_error_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


@pytest.mark.parametrize("argv,hint", [
    (("--cache-dir", "x"), "TAUTRELS_CACHE"),
    (("--cache-dir=x",), "TAUTRELS_CACHE"),
    (("--config", "cfg.json"), "command-line flag"),
    (("--threads", "2"), "one thread"),
])
def test_removed_global_flag_is_named(capsys, argv, hint):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "verify", "--suite", "series", "--quick"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = argv[0].partition("=")[0]
    assert f"{flag} was removed" in captured.err
    assert hint in captured.err


class TestReadme:
    def test_command_lines_parse(self):
        parser = build_parser()
        blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("tautrels ")]
        assert len(lines) > 10
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


class TestGraphsAndClasses:
    def test_graphs_list(self, capsys):
        code, out, _ = run(capsys, "graphs", "list", "--genus", "2",
                           "--max-edges", "1")
        assert code == 0
        assert any(g["edges"] for g in payload(out)["graphs"])

    def test_classes_normal_form_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "rel.json"
        run(capsys, "relations", "gen", "--genus", "3", "--codim", "2",
            "--out", str(out))
        rel = json.loads(out.read_text())["relations"][0]
        infile = tmp_path / "class.json"
        infile.write_text(json.dumps(rel))
        code, text, _ = run(capsys, "classes", "normal-form", "--in",
                            str(infile))
        assert code == 0
        assert payload(text)["terms"] == rel["terms"]

    @pytest.mark.parametrize("flags,weights,decor", [
        ((), [["1", "2"], ["1", "10"]],
         {"kappa": [], "blocks": [{"points": [["m", 2]], "a": 2}]}),
        (("--forget", "2"), [["1", "2"]], {"kappa": [1], "blocks": []}),
    ])
    def test_classes_pushforward_forgets_light_points(
            self, capsys, tmp_path, flags, weights, decor):
        # D_{{2,3},3} -> -D_{{2},2} = -psi_2^2 -> -kappa_1
        infile = tmp_path / "pair_block.json"
        infile.write_text(json.dumps(CLASS_FILES["pair_block.json"]))
        code, text, _ = run(capsys, "classes", "pushforward", "--in",
                            str(infile), *flags)
        assert code == 0
        expected = _smooth_file(weights, decor)
        expected["terms"][0]["num"] = "-1"
        assert payload(text) == expected

    # psi_n^2 of a weight-one point n pushes forward to kappa~_1 = kappa_1
    # plus psi_i for every other marking i: the rule of a point is fixed by
    # its weight, light or one
    @pytest.mark.parametrize("name,expected", [
        ("heavy_point.json",
         '{"genus":2,"terms":[{"decor":[{"blocks":[{"a":1,"points":'
         '[["m",1]]}],"kappa":[]}],"den":"1","graph":{"edges":[],"legs":'
         '[[1,0]],"vertices":[2]},"num":"1"},{"decor":[{"blocks":[],'
         '"kappa":[1]}],"den":"1","graph":{"edges":[],"legs":[[1,0]],'
         '"vertices":[2]},"num":"1"}],"weights":[["1","1"]]}'),
        ("weight1_last.json",
         '{"genus":2,"terms":[{"decor":[{"blocks":[{"a":1,"points":'
         '[["m",1]]}],"kappa":[]}],"den":"1","graph":{"edges":[],"legs":'
         '[[1,0],[2,0]],"vertices":[2]},"num":"1"},{"decor":[{"blocks":'
         '[{"a":1,"points":[["m",2]]}],"kappa":[]}],"den":"1","graph":'
         '{"edges":[],"legs":[[1,0],[2,0]],"vertices":[2]},"num":"1"},'
         '{"decor":[{"blocks":[],"kappa":[1]}],"den":"1","graph":{"edges":'
         '[],"legs":[[1,0],[2,0]],"vertices":[2]},"num":"1"}],"weights":'
         '[["1","10"],["1","10"]]}'),
    ])
    def test_classes_pushforward_forgets_a_weight_one_point(
            self, capsys, tmp_path, name, expected):
        infile = tmp_path / name
        infile.write_text(json.dumps(CLASS_FILES[name]))
        code, text, _ = run(capsys, "classes", "pushforward", "--in",
                            str(infile), "--forget", "1")
        assert code == 0
        assert text.splitlines()[0] == expected


CLASS_FILES = {
    "weight2.json": {"genus": 1, "weights": [["2", "1"]], "terms": []},
    "bad_legs.json": {
        "genus": 1, "weights": [["1", "2"]],
        "terms": [{"graph": {"vertices": [1], "legs": [0], "edges": []},
                   "decor": [{"kappa": [], "blocks": []}],
                   "num": "1", "den": "1"}],
    },
}


def _smooth_file(weights, decor):
    """A one-term class on the smooth genus-two graph."""
    return {"genus": 2, "weights": weights,
            "terms": [{"graph": {"vertices": [2], "edges": [],
                                 "legs": [[i + 1, 0] for i in
                                          range(len(weights))]},
                       "decor": [decor], "num": "1", "den": "1"}]}


# decorations the stored-decoration kernels could not take as they are
CLASS_FILES["unsorted_kappa.json"] = _smooth_file(
    [["1", "1000"]],
    {"kappa": [2, 1], "blocks": [{"points": [["m", 1]], "a": 2}]})
CLASS_FILES["heavy_block.json"] = _smooth_file(
    [["1", "1"], ["1", "1"]],
    {"kappa": [], "blocks": [{"points": [["m", 1], ["m", 2]], "a": 1}]})
CLASS_FILES["heavy_point.json"] = _smooth_file(
    [["1", "1"], ["1", "1"]],
    {"kappa": [], "blocks": [{"points": [["m", 2]], "a": 2}]})
# a last point of weight 1/2 after one of weight one: neither light nor of
# weight one
CLASS_FILES["half_after_one.json"] = _smooth_file(
    [["1", "1"], ["1", "2"]],
    {"kappa": [], "blocks": [{"points": [["m", 2]], "a": 2}]})
CLASS_FILES["far_point.json"] = _smooth_file(
    [["1", "2"]], {"kappa": [], "blocks": [{"points": [["h", 0, 0]], "a": 1}]})
CLASS_FILES["one_point.json"] = _smooth_file(
    [["1", "10"]], {"kappa": [], "blocks": [{"points": [["m", 1]], "a": 1}]})
CLASS_FILES["repeated_point.json"] = _smooth_file(
    [["1", "8"], ["1", "8"]],
    {"kappa": [], "blocks": [{"points": [["m", 1], ["m", 1]], "a": 1}]})
CLASS_FILES["weight1_last.json"] = _smooth_file(
    [["1", "10"], ["1", "10"], ["1", "1"]],
    {"kappa": [], "blocks": [{"points": [["m", 3]], "a": 2}]})
# D_{{2,3},3}: forgetting both light points leaves -kappa_1
CLASS_FILES["pair_block.json"] = _smooth_file(
    [["1", "2"], ["1", "10"], ["1", "10"]],
    {"kappa": [], "blocks": [{"points": [["m", 2], ["m", 3]], "a": 3}]})
CLASS_FILES["batch_bad_legs.json"] = [CLASS_FILES["bad_legs.json"]]
CLASS_FILES["batch_no_weights.json"] = [{"genus": 1, "terms": []}]
CLASS_FILES["batch_ints.json"] = [1, 2]


def _batch_with(graph=None, **row):
    """A one-relation batch: the one-vertex genus-one class with one leg,
    with its graph or row fields replaced."""
    term = {"graph": {"vertices": [1], "legs": [[1, 0]], "edges": [],
                      **(graph or {})},
            "decor": [{"kappa": [], "blocks": []}], "num": "1", "den": "1"}
    relation = {"genus": 1, "weights": [["1", "2"]], "terms": [term]}
    for key, value in row.items():
        (relation if key == "genus" else term)[key] = value
    return [relation]


CLASS_FILES["batch_leg_vertex.json"] = _batch_with({"legs": [[1, 5]]})
CLASS_FILES["batch_edge_vertex.json"] = _batch_with({"edges": [[0, 3]]})
CLASS_FILES["batch_no_decor.json"] = _batch_with(decor=[])
CLASS_FILES["batch_str_genus.json"] = _batch_with(genus="x")
# two codimension-0 classes, of genus one and of genus three
CLASS_FILES["batch_mixed_genus.json"] = (
    _batch_with() + _batch_with({"vertices": [3]}, genus=3))


def _with(data, path, value):
    """A copy of the class file ``data`` with the entry at ``path`` (keys
    and indices) set to ``value``."""
    data = json.loads(json.dumps(data))
    *inner, last = path
    target = data
    for key in inner:
        target = target[key]
    target[last] = value
    return data


# zero denominators, and numbers that are not integers
ONE_POINT = CLASS_FILES["one_point.json"]
TERM = ("terms", 0)
CLASS_FILES.update({
    "zero_den.json": _with(ONE_POINT, TERM + ("den",), "0"),
    "zero_weight_den.json": _with(ONE_POINT, ("weights", 0), ["1", "0"]),
    "float_a.json": _with(ONE_POINT, TERM + ("decor", 0, "blocks", 0, "a"),
                          1.5),
    "bool_a.json": _with(ONE_POINT, TERM + ("decor", 0, "blocks", 0, "a"),
                         True),
    "float_kappa.json": _with(ONE_POINT, TERM + ("decor", 0, "kappa"), [1.0]),
    "float_genus.json": _with(ONE_POINT, ("genus",), 2.0),
    "float_vertices.json": _with(ONE_POINT, TERM + ("graph", "vertices"),
                                 [2.0]),
    "float_legs.json": _with(ONE_POINT, TERM + ("graph", "legs"), [[1, 0.0]]),
    "float_point.json": _with(
        ONE_POINT, TERM + ("decor", 0, "blocks", 0, "points"), [["m", 1.0]]),
    "float_num.json": _with(ONE_POINT, TERM + ("num",), 1.5),
    "far_leg.json": _with(ONE_POINT, TERM + ("graph", "legs"), [[5, 0]]),
    "empty_block.json": _with(
        ONE_POINT, TERM + ("decor", 0, "blocks", 0, "points"), []),
    "empty_point.json": _with(
        ONE_POINT, TERM + ("decor", 0, "blocks", 0, "points"), [[]]),
})
CLASS_FILES["batch_zero_den.json"] = [CLASS_FILES["zero_den.json"]]
CLASS_FILES["batch_zero_weight_den.json"] = [
    CLASS_FILES["zero_weight_den.json"]]
# classes on spaces that do not exist, and push-forwards onto such a space:
# psi_1 and nothing on M_{1,(1/10)}, nothing on M_{0,(1,1,1)}
PSI_GENUS1 = _with(_with(ONE_POINT, ("genus",), 1),
                   TERM + ("graph", "vertices"), [1])
CLASS_FILES.update({
    "negative_genus.json": {"genus": -1, "weights": [], "terms": []},
    "half_point_genus0.json": {"genus": 0, "weights": [["1", "2"]],
                               "terms": []},
    "batch_genus0.json": {"relations": [
        {"genus": 0, "weights": [], "terms": []}]},
    "psi_genus1.json": PSI_GENUS1,
    "empty_genus1.json": _with(PSI_GENUS1, ("terms",), []),
    "empty_three_ones.json": {"genus": 0, "weights": [["1", "1"]] * 3,
                              "terms": []},
    # the class 1 of M_{0,(1,1,1)}
    "one_three_ones.json": {
        "genus": 0, "weights": [["1", "1"]] * 3,
        "terms": [{"graph": {"vertices": [0], "legs": [[1, 0], [2, 0], [3, 0]],
                             "edges": []},
                   "decor": [{"kappa": [], "blocks": []}],
                   "num": "1", "den": "1"}]},
    # genus one: a genus-0 vertex with legs 1/10, 1/10 and 1 and an edge to
    # a genus-1 vertex
    "destabilizing.json": {
        "genus": 1, "weights": [["1", "10"], ["1", "10"], ["1", "1"]],
        "terms": [{"graph": {"vertices": [0, 1],
                             "legs": [[1, 0], [2, 0], [3, 0]],
                             "edges": [[0, 1]]},
                   "decor": [{"kappa": [], "blocks": []}] * 2,
                   "num": "1", "den": "1"}]},
    "ones_around_wall.json": {
        "genus": 0,
        "weights": [["1", "1"], ["1", "2"], ["1", "2"], ["1", "1"]],
        "terms": [{"graph": {"vertices": [0],
                             "legs": [[1, 0], [2, 0], [3, 0], [4, 0]],
                             "edges": []},
                   "decor": [{"kappa": [], "blocks": []}],
                   "num": "1", "den": "1"}]},
    "light_after_wall.json": _smooth_file(
        [["1", "2"], ["1", "2"], ["1", "10"], ["1", "1"]],
        {"kappa": [], "blocks": [{"points": [["m", 4]], "a": 2}]}),
})


class TestInvalidInput:
    @pytest.mark.parametrize("argv,condition", [
        (("graphs", "list", "--genus", "1", "--weights", "2",
          "--max-edges", "1"), "weights in (0, 1] violated"),
        (("relations", "gen", "--genus", "2", "--codim", "1",
          "--weights", "2"), "weights in (0, 1] violated"),
        (("relations", "gen", "--genus", "-1", "--codim", "2"),
         "genus >= 0 violated"),
        (("graphs", "list", "--genus", "-1", "--max-edges", "1"),
         "genus >= 0 violated"),
        (("graphs", "list", "--genus", "1", "--max-edges", "-1"),
         "max_edges >= 0 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--subset", "7"), "S ⊆ {1..n} violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--subset", "1", "--sigma", "1"), "S ⊆ {1..n} violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--subset", "2", "--weights", "1/2", "--construction", "open-fz"),
         "S ⊆ {1..n} violated"),
        (("relations", "gen", "--genus", "-1", "--codim", "2",
          "--construction", "open-fz"), "genus >= 0 violated"),
        (("relations", "gen", "--genus", "-1", "--codim", "2",
          "--construction", "open-sq"), "genus >= 0 violated"),
        (("series", "dump", "--name", "Phi", "--orders", "t=3"),
         "series Phi needs an x order"),
        (("series", "dump", "--name", "A", "--orders", "t=-1"),
         "order >= 0 violated"),
        (("series", "dump", "--name", "DeltaE", "--orders", "t=-1"),
         "order >= 0 violated"),
        (("classes", "normal-form", "--in", "weight2.json"),
         "weights in (0, 1] violated"),
        (("classes", "normal-form", "--in", "bad_legs.json"),
         "cannot read class file"),
        (("rank", "--batch", "batch_bad_legs.json"),
         "cannot read batch batch_bad_legs.json"),
        (("rank", "--batch", "batch_no_weights.json"),
         "cannot read batch batch_no_weights.json"),
        (("rank", "--batch", "batch_ints.json"),
         "cannot read batch batch_ints.json"),
        (("rank", "--batch", "batch_leg_vertex.json"),
         "cannot read batch batch_leg_vertex.json"),
        (("rank", "--batch", "batch_edge_vertex.json"),
         "cannot read batch batch_edge_vertex.json"),
        (("rank", "--batch", "batch_no_decor.json"),
         "cannot read batch batch_no_decor.json"),
        (("rank", "--batch", "batch_str_genus.json"),
         "cannot read batch batch_str_genus.json"),
        (("verify", "--suite", "pushforward", "--d", "0"), "d >= 1 violated"),
        (("verify", "--suite", "pushforward", "--d", "-1"),
         "d >= 1 violated"),
        (("verify", "--suite", "chain", "--genus", "-1"),
         "genus >= 0 violated"),
        (("verify", "--suite", "chain", "--genus", "1"),
         "codim >= 1 violated"),
        (("verify", "--suite", "pushforward", "--d", "1", "--genus", "7"),
         "--genus is not read by the pushforward suite"),
        (("verify", "--suite", "chain", "--genus", "3", "--codim", "2",
          "--d", "5"), "--d is not read by the chain suite"),
        (("verify", "--suite", "series", "--quick", "--genus", "9",
          "--d", "4"), "--genus is not read by the series suite"),
        (("verify", "--suite", "pushforward", "--quick"),
         "--quick is not read by the pushforward suite"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--construction", "boundary-sq", "--d", "1", "--a", "1"),
         "len(a) == n violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--construction", "open-sq", "--weights", "1/10", "--a", "1,1"),
         "len(a) == n violated"),
        (("relations", "gen", "--genus", "0", "--codim", "-1",
          "--construction", "open-sq", "--d", "2"), "r >= 0 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "9",
          "--construction", "open-sq", "--d", "-2"), "d >= 0 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--construction", "boundary-sq", "--d", "1", "--weights", "1/10",
          "--a", "-1"), "a_i >= 0 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--subset", "x"), "--subset part 'x' is not an integer"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--sigma", "1,a"), "--sigma part 'a' is not an integer"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--weights", "x"), "--weights part 'x' is not a rational number"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--weights", "1/0"),
         "--weights part '1/0' is not a rational number"),
        (("relations", "gen", "--genus", "2", "--codim", "2",
          "--construction", "open-sq", "--a", "x"),
         "--a part 'x' is not an integer"),
        (("graphs", "list", "--genus", "1", "--weights", "1/0",
          "--max-edges", "1"),
         "--weights part '1/0' is not a rational number"),
        (("relations", "gen", "--genus", "2", "--codim", "3",
          "--weights", "1/3", "--sigma", "0"), "sigma parts >= 1 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "3",
          "--weights", "1/3", "--sigma", "-1"), "sigma parts >= 1 violated"),
        (("relations", "gen", "--genus", "2", "--codim", "3",
          "--weights", "1/3", "--sigma", "2"),
         "no sigma part congruent to 2 mod 3 violated"),
        (("series", "dump", "--name", "A", "--orders", "t=x"),
         "order 't=x' is not of the form var=N"),
        (("--seed", "7", "relations", "gen", "--genus", "3", "--codim", "2"),
         "--seed is read only by verify --suite series"),
        (("--seed", "7", "series", "dump", "--name", "A", "--orders", "t=4"),
         "--seed is read only by verify --suite series"),
        (("--seed", "7", "graphs", "list", "--genus", "2",
          "--max-edges", "1"), "--seed is read only by verify --suite series"),
        (("--seed", "7", "verify", "--suite", "chain", "--genus", "3"),
         "--seed is not read by the chain suite"),
        (("--seed", "7", "verify", "--suite", "pushforward", "--d", "1"),
         "--seed is not read by the pushforward suite"),
        (("classes", "pushforward", "--in", "unsorted_kappa.json"),
         "decor is not in normal form"),
        (("classes", "pushforward", "--in", "heavy_block.json"),
         "decor is not in normal form"),
        (("classes", "normal-form", "--in", "far_point.json"),
         "a block at vertex 0 names a point elsewhere"),
        (("classes", "pushforward", "--in", "half_after_one.json"),
         "w(S) + w_n <= 1 whenever w(S) <= 1 violated: n=2, S={1}"),
        (("classes", "pushforward", "--in", "one_point.json", "--forget", "3"),
         "0 <= count <= n violated: count=3, n=1"),
        (("classes", "pushforward", "--in", "one_point.json",
          "--forget", "-1"), "0 <= count <= n violated: count=-1, n=1"),
        # every target is checked before any pass: M_{0,(1,1/2)} is named
        # before the point 1/2 after 1 fails the light-point check
        (("classes", "pushforward", "--in", "ones_around_wall.json",
          "--forget", "2"), "2g-2+sum(w) > 0 violated: g=0, weights=1,1/2"),
        # the pass after the weight-one point forgets 1/10 after 1/2, 1/2
        (("classes", "pushforward", "--in", "light_after_wall.json",
          "--forget", "2"),
         "w(S) + w_n <= 1 whenever w(S) <= 1 violated: n=3, S={1, 2}"),
        (("classes", "pushforward", "--in", "one_three_ones.json"),
         "2g-2+sum(w) > 0 violated: g=0, weights=1,1"),
        (("relations", "gen", "--genus", "3", "--codim", "2",
          "--subset", "1,1", "--weights", "1/8"),
         "S has distinct markings violated: S=1,1"),
        (("relations", "gen", "--genus", "3", "--codim", "2",
          "--subset", "1,1", "--weights", "1/8", "--construction", "open-fz"),
         "S has distinct markings violated: S=1,1"),
        (("relations", "gen", "--genus", "3", "--codim", "2",
          "--subset", "1,1", "--weights", "1/8", "--sigma", "1"),
         "S has distinct markings violated: S=1,1"),
        (("relations", "gen", "--genus", "1", "--codim", "2"),
         "2g-2+sum(w) > 0 violated: g=1"),
        (("relations", "gen", "--genus", "0", "--codim", "1",
          "--weights", "1,1"), "2g-2+sum(w) > 0 violated: g=0, weights=1,1"),
        (("relations", "gen", "--genus", "0", "--codim", "1",
          "--weights", "1,1", "--construction", "open-fz"),
         "2g-2+sum(w) > 0 violated: g=0, weights=1,1"),
        (("relations", "gen", "--genus", "1", "--codim", "2",
          "--construction", "open-sq"), "2g-2+sum(w) > 0 violated: g=1"),
        (("relations", "gen", "--genus", "1", "--codim", "2",
          "--construction", "boundary-sq"), "2g-2+sum(w) > 0 violated: g=1"),
        (("relations", "gen", "--genus", "1", "--codim", "2",
          "--sigma", "1"), "2g-2+sum(w) > 0 violated: g=1"),
        (("verify", "--suite", "chain", "--genus", "0", "--codim", "1"),
         "2g-2+sum(w) > 0 violated: g=0"),
        (("verify", "--suite", "chain", "--genus", "1", "--codim", "2"),
         "2g-2+sum(w) > 0 violated: g=1"),
        (("rank", "--batch", "batch_mixed_genus.json"),
         "mixed-space batch: [(1, '1/2'), (3, '1/2')]"),
        (("classes", "normal-form", "--in", "repeated_point.json"),
         "decor is not in normal form"),
        (("graphs", "list", "--genus", "0", "--max-edges", "1"),
         "2g-2+sum(w) > 0 violated: g=0, weights=()"),
        (("classes", "normal-form", "--in", "zero_den.json"),
         "cannot read class file zero_den.json"),
        (("classes", "pushforward", "--in", "zero_den.json"),
         "cannot read class file zero_den.json"),
        (("classes", "normal-form", "--in", "zero_weight_den.json"),
         "cannot read class file zero_weight_den.json"),
        (("rank", "--batch", "batch_zero_den.json"),
         "cannot read batch batch_zero_den.json"),
        (("rank", "--batch", "batch_zero_weight_den.json"),
         "cannot read batch batch_zero_weight_den.json"),
        (("classes", "normal-form", "--in", "float_a.json"),
         "a must be an integer, not 1.5"),
        (("classes", "normal-form", "--in", "bool_a.json"),
         "a must be an integer, not True"),
        (("classes", "normal-form", "--in", "float_kappa.json"),
         "kappa must be an integer, not 1.0"),
        (("classes", "normal-form", "--in", "float_genus.json"),
         "genus must be an integer, not 2.0"),
        (("classes", "normal-form", "--in", "float_vertices.json"),
         "vertices must be an integer, not 2.0"),
        (("classes", "normal-form", "--in", "float_legs.json"),
         "legs must be an integer, not 0.0"),
        (("classes", "normal-form", "--in", "float_point.json"),
         "points must be an integer, not 1.0"),
        (("classes", "normal-form", "--in", "float_num.json"),
         "num must be an integer, not 1.5"),
        (("classes", "normal-form", "--in", "far_leg.json"),
         "legs must name the markings 1..n once each"),
        (("classes", "normal-form", "--in", "empty_block.json"),
         "blocks nonempty with sorted distinct points violated at vertex 0"),
        (("classes", "normal-form", "--in", "empty_point.json"),
         "a block at vertex 0 names a point elsewhere"),
        # the target is checked before the weight-one pass meets the term
        # it cannot push forward, a genus-0 vertex with two light legs
        (("classes", "pushforward", "--in", "destabilizing.json",
          "--forget", "3"), "2g-2+sum(w) > 0 violated: g=1, weights=()"),
        # 2g-2+sum(w) = 0 on M_{0,(1,1/2,1/2)}: no space
        (("classes", "pushforward", "--in", "ones_around_wall.json"),
         "2g-2+sum(w) > 0 violated: g=0, weights=1,1/2,1/2"),
        # the range of an extended relation names the given r, S and sigma
        (("relations", "gen", "--genus", "3", "--codim", "2",
          "--sigma", "1"),
         "g-1+(r-k)+|S|+m even violated: g=3, r=2, |S|=0, sigma=1, "
         "k=sum floor(sigma_i/3)=0, m=#(sigma_i = 1 mod 3)=1"),
        (("relations", "gen", "--genus", "2", "--codim", "1",
          "--sigma", "4"),
         "3(r-k) >= g+1+|S|+m violated: r=1, g=2, |S|=0, sigma=4, "
         "k=sum floor(sigma_i/3)=1, m=#(sigma_i = 1 mod 3)=1"),
        (("classes", "normal-form", "--in", "negative_genus.json"),
         "genus >= 0 violated: genus=-1"),
        (("classes", "normal-form", "--in", "half_point_genus0.json"),
         "2g-2+sum(w) > 0 violated: g=0, weights=1/2"),
        (("rank", "--batch", "batch_genus0.json"),
         "2g-2+sum(w) > 0 violated: g=0, weights=()"),
        (("classes", "pushforward", "--in", "psi_genus1.json"),
         "2g-2+sum(w) > 0 violated: g=1, weights=()"),
        (("classes", "pushforward", "--in", "empty_genus1.json"),
         "2g-2+sum(w) > 0 violated: g=1, weights=()"),
        (("classes", "pushforward", "--in", "empty_three_ones.json",
          "--forget", "1"),
         "2g-2+sum(w) > 0 violated: g=0, weights=1,1"),
    ])
    def test_exit_2_names_condition(self, capsys, tmp_path, monkeypatch,
                                    argv, condition):
        monkeypatch.chdir(tmp_path)
        for name, data in CLASS_FILES.items():
            (tmp_path / name).write_text(json.dumps(data))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert condition in err
        assert out == ""
