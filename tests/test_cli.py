import json

import pytest

from fgdyn import cli
from fgdyn.autofiles import AutoFileError, parse_autofile, parse_word_list
from fgdyn.cli import main
from fgdyn.words import parse_word, standard_alphabet

F4 = standard_alphabet(4)

PHI1_FILE = """\
# rank-4 example with a parabolic orbit
alphabet: a b c d
map a -> a
map b -> b a
map c -> c a^2
map d -> d c
inv a -> a
inv b -> b a^-1
inv c -> c a^-2
inv d -> d a^2 c^-1
fix: a; b a b^-1; c a c^-1
seeds: b; b^-1; c; c^-1; d; d^-1; b c^-1; b d^-1
"""


@pytest.fixture
def phi1_path(tmp_path):
    path = tmp_path / "phi1.auto"
    path.write_text(PHI1_FILE, encoding="utf-8")
    return str(path)


class TestAutoFile:
    def test_parse_and_verify(self):
        loaded = parse_autofile(PHI1_FILE)
        assert loaded.pair.apply(parse_word(F4, "d")) == parse_word(F4, "d c")
        assert len(loaded.fixed_generators) == 3
        assert len(loaded.seeds) == 8

    def test_missing_inverse_line(self):
        text = "alphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\n"
        with pytest.raises(AutoFileError):
            parse_autofile(text)

    def test_wrong_inverse(self):
        text = (
            "alphabet: a b\nmap a -> a\nmap b -> b a\n"
            "inv a -> a\ninv b -> b a\n"
        )
        with pytest.raises(AutoFileError):
            parse_autofile(text)

    def test_unknown_directive(self):
        with pytest.raises(AutoFileError):
            parse_autofile("alphabet: a b\nfrob a -> b\n")
        with pytest.raises(AutoFileError, match="expected '<generator> -> <word>'"):
            parse_autofile("alphabet: a b\nmap a a\n")

    def test_unfixed_fix_word_rejected(self):
        text = (
            "alphabet: a b\nmap a -> a\nmap b -> b a\n"
            "inv a -> a\ninv b -> b a^-1\nfix: b\n"
        )
        with pytest.raises(AutoFileError):
            parse_autofile(text)

    def test_second_directive_names_its_line(self):
        text = "alphabet: a b\nmap a -> a\nmap b -> b a\nmap b -> b a^2\n"
        with pytest.raises(AutoFileError, match="^line 4: "):
            parse_autofile(text)
        # so does a malformed word
        with pytest.raises(AutoFileError, match="^line 2: "):
            parse_autofile("alphabet: a b\nmap a -> a^x\n")

    def test_alphabet_required_first(self):
        with pytest.raises(AutoFileError):
            parse_autofile("map a -> a\n")
        with pytest.raises(AutoFileError, match="missing alphabet"):
            parse_autofile("# no directives\n")

    def test_word_list(self):
        words = parse_word_list(F4, " a ; b d^-1;; ")
        assert words == (parse_word(F4, "a"), parse_word(F4, "b d^-1"))
        with pytest.raises(ValueError):
            parse_word_list(F4, "a; e")


class TestExitCodes:
    def test_parabolic_positive(self, capsys):
        assert main(["parabolic", "phi_k:k=1", "b d^-1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "parabolic"
        assert payload["point"] == {"head": "b", "period": "a^-1"}

    def test_parabolic_negative(self, capsys):
        assert main(["parabolic", "phi_k:k=1", "d"]) == 1

    def test_parabolic_over_a_deep_held_chain(self, capsys):
        # both orbits are jumped to steps 1,502 and 1,500; stepped, each is
        # held for about 1,400 steps, every held level read from the one
        # before it (test_deep_chain_of_held_levels keeps that chain)
        assert main(["parabolic", "beta:rank=6", "b d^-1", "--max-iter", "3000", "--prefix", "1500"]) == 0
        out = capsys.readouterr()
        assert json.loads(out.out)["verdict"] == "parabolic"
        assert not out.err

    def test_parabolic_fixed_seed(self, capsys):
        assert main(["parabolic", "phi_k:k=1", "a"]) == 1
        assert json.loads(capsys.readouterr().out)["reason"].startswith("seed is fixed")

    def test_input_error(self, capsys):
        assert main(["parabolic", "zeta:k=1", "a"]) == 3
        assert main(["omega", "phi_k:k=1", "q q q"]) == 3

    def test_negative_search_bound(self, capsys):
        assert main(["graph", "phi_k:k=1", "--bound", "-1"]) == 3
        assert "search bound" in capsys.readouterr().err
        assert main(["twist-reduce", "b", "1", "--bound", "-3"]) == 3
        assert "search bound" in capsys.readouterr().err
        assert main(["graph", "alpha_k:k=1", "--bound", "99999999999999999999"]) == 3
        assert "search bound" in capsys.readouterr().err

    def test_parabolic_inconclusive_exits_2(self, capsys):
        assert main(["parabolic", "phi_k:k=1", "b d^-1", "--max-iter", "10"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "inconclusive"
        assert payload["forward"]["kind"] == payload["backward"]["kind"] == "not-converged"

    def test_inconclusive_on_overflow(self, capsys):
        # the budget bites before a 200-letter prefix can certify
        assert main(["omega", "beta:rank=6,theta=trace3", "e", "--max-len", "100", "--max-iter", "50"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["diagnostics"]["reason"] == "growth-overflow"


def _bad_definition_file(tmp_path, monkeypatch):
    path = tmp_path / "bad.auto"
    path.write_text("alphabet: a b\nfrob a -> b\n", encoding="utf-8")
    return ["omega", str(path), "a"]


def _definition_file(text):
    def make_argv(tmp_path, monkeypatch):
        path = tmp_path / "def.auto"
        path.write_text(text, encoding="utf-8")
        return ["iterate", str(path), "b", "3"]

    return make_argv


def _bad_config_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text("{not json", encoding="utf-8")
    monkeypatch.setenv("FGDYN_CONFIG", str(path))
    return ["omega", "phi_k:k=1", "b"]


@pytest.mark.parametrize(
    "make_argv",
    [
        lambda tmp_path, monkeypatch: ["parabolic", "zeta:k=1", "a"],
        lambda tmp_path, monkeypatch: ["omega", "phi_k:k=1", "a^x"],
        _bad_definition_file,
        _bad_config_file,
        lambda tmp_path, monkeypatch: ["graph", "phi_k:k=1", "--bound", "-1"],
        # a search bound past sys.maxsize, which no prefix can be cut to
        lambda tmp_path, monkeypatch: ["graph", "alpha_k:k=1", "--bound", "99999999999999999999"],
        # each would verify if the last line of a kind won
        _definition_file(
            "alphabet: a b\nmap a -> a\nmap b -> b a\nmap b -> b a^2\ninv a -> a\ninv b -> b a^-2\n"
        ),
        _definition_file(
            "alphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\ninv b -> b a^-1\ninv b -> b a^-1\n"
        ),
        _definition_file(
            "alphabet: a b\nalphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\ninv b -> b a^-1\n"
        ),
        _definition_file(
            "alphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\ninv b -> b a^-1\n"
            "fix: a\nfix: b a b^-1\n"
        ),
        _definition_file(
            "alphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\ninv b -> b a^-1\n"
            "seeds: b\nseeds: a\n"
        ),
        # argparse's own usage errors exit 2, the code of an inconclusive result
        lambda tmp_path, monkeypatch: ["iterate", "phi_k:k=1", "b", "x"],
        lambda tmp_path, monkeypatch: ["omega", "phi_k:k=1"],
        # iterate reads only the length budget
        lambda tmp_path, monkeypatch: ["iterate", "phi_k:k=1", "b", "2", "--max-iter", "3"],
        # more letters than len() can count
        lambda tmp_path, monkeypatch: ["iterate", "phi_k:k=1", "b^99999999999999999999", "1"],
    ],
    ids=[
        "family-spec",
        "word-syntax",
        "definition-file",
        "config-file",
        "negative-bound",
        "huge-bound",
        "second-map",
        "second-inv",
        "second-alphabet",
        "second-fix",
        "second-seeds",
        "usage-bad-int",
        "usage-missing-argument",
        "iterate-max-iter",
        "word-too-long",
    ],
)
def test_input_errors_exit_3_with_a_message(make_argv, tmp_path, monkeypatch, capsys):
    assert main(make_argv(tmp_path, monkeypatch)) == 3
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and len(err) > len("error: \n")
    assert "Traceback" not in out + err


def test_out_of_memory_exits_3_with_one_error_line(monkeypatch, capsys):
    # b^(10^12) is one run, but its image (b a)^(10^12) cannot be built;
    # the failure is raised here, so that no test fills the memory
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "iterate", exhausted)
    assert main(["iterate", "phi_k:k=1", "b^1000000000000", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iterate", "--help"])
    assert exc.value.code == 0
    assert "--max-len" in capsys.readouterr().out


class TestCommands:
    def test_iterate_forward(self, capsys):
        assert main(["iterate", "phi_k:k=1", "b d^-1", "2"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_word(F4, out) == parse_word(F4, "b c^-1 c^-1 d^-1")

    def test_iterate_zero_echoes(self, capsys):
        main(["iterate", "phi_k:k=1", "b d^-1", "0"])
        assert capsys.readouterr().out.strip() == "b d^-1"

    def test_iterate_periodic_orbit_returns(self, capsys):
        assert main(["iterate", "sigma", "a", "100000000"]) == 0
        assert capsys.readouterr().out.strip() == "a"

    def test_iterate_periodic_orbit_of_a_long_word_returns(self, capsys):
        word = " ".join(["a b^-1 a^2 b"] * 500)
        assert main(["iterate", "sigma", word, "100000000"]) == 0
        assert capsys.readouterr().out.strip() == word

    def test_iterate_growth_overflow_after_a_jump(self, capsys):
        # b a^n under delta: the jump lands one step before the overflow
        assert main(["iterate", "delta:n=1", "b", "1000000"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "error": "growth-overflow", "iteration": 1000000, "length": 1000001, "budget": 1000000
        }

    def test_long_conjugator_powers(self, tmp_path, capsys):
        # the letter iterates of a^-2 are conjugates with thousands of
        # conjugator runs; the figures are those of letter-level iteration
        path = tmp_path / "f2.auto"
        path.write_text(
            "alphabet: a b\nmap a -> b^-2 a b\nmap b -> a^-1 b a^-1 b^2\n"
            "inv a -> b a^2 b a b^-1\ninv b -> b a^2\n",
            encoding="utf-8",
        )
        assert main(["iterate", str(path), "a^-2", "30"]) == 2
        assert json.loads(capsys.readouterr().out) == {
            "error": "growth-overflow", "iteration": 10, "length": 1048346, "budget": 1000000
        }
        assert main(["omega", str(path), "a^-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["kind"], payload["iterations"], payload["certified_length"]) == ("boundary", 6, 361)

    def test_iterate_json(self, capsys):
        assert main(["iterate", "phi_k:k=1", "b d^-1", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"word": "b c^-2 d^-1", "length": 4}

    def test_omega_window_flag(self, capsys):
        # a 300-step window certifies b a^299, where the default takes 200
        assert main(["omega", "phi_k:k=1", "b", "--window", "300"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["iterations"], payload["certified_length"]) == (300, 300)
        assert payload["point"] == {"type": "rational", "head": "b", "period": "a"}

    def test_iterate_backward_table(self, capsys):
        assert main(["iterate", "phi_k:k=1", "b d^-1", "--", "-3"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "b a^-3 c a^-6 c a^-4 c a^-2 d^-1"

    def test_omega_rational(self, capsys):
        assert main(["omega", "phi_k:k=2", "c"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"] == {"type": "rational", "head": "c", "period": "a"}

    def test_omega_backward_flag(self, capsys):
        assert main(["omega", "phi_k:k=2", "c", "--backward"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"]["period"] == "a^-1"

    def test_omega_mixed_seed_certifies(self, capsys):
        # whole iterates overflow the budget at step 15, on 2,178,325
        # letters; the held prefix certifies the limit
        assert main(["omega", "beta:rank=6", "b e"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"] == {"type": "rational", "head": "b", "period": "a"}

    def test_omega_prefix_approx(self, capsys):
        assert main(["omega", "phi_k:k=2", "d"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"]["type"] == "prefix"
        assert payload["point"]["prefix"].startswith("d c^2 a^3 c a^6")

    def test_abelianize_power(self, capsys):
        assert main(["abelianize", "phi_k:k=1", "--power", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"][0] == [1, 2, 4, 2]
        assert payload["matrix"][3] == [0, 0, 0, 1]

    def test_abelianize_identity(self, capsys):
        assert main(["abelianize", "identity:rank=4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_twist_classify_cases(self, capsys):
        assert main(["twist-classify", "3", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "two-component"
        assert main(["twist-classify", "2", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["case"] == "north-south"

    def test_twist_reduce_witness(self, capsys):
        assert main(["twist-reduce", "b a^2 b^-1", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"result": "elliptic", "w": "b", "k": 3}

    def test_twist_reduce_unresolved(self, capsys):
        assert main(["twist-reduce", "b", "1", "--bound", "3"]) == 2
        assert json.loads(capsys.readouterr().out)["result"] == "unresolved"

    def test_twist_reduce_huge_power_unresolved(self, capsys):
        assert main(["twist-reduce", "b", "1000000000", "--bound", "3"]) == 2
        assert json.loads(capsys.readouterr().out)["result"] == "unresolved"

    def test_graph_from_file(self, phi1_path, tmp_path, capsys):
        dot_path = str(tmp_path / "out.dot")
        assert main(["graph", phi1_path, "--dot", dot_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["vertices"]) == 8
        assert len(payload["edges"]) == 7
        assert payload["components"] == 3
        dot = (tmp_path / "out.dot").read_text(encoding="utf-8")
        assert '"b (a^-1)^∞" -> "b (a^-1)^∞"' in dot

    def test_graph_requires_fix(self, tmp_path, capsys):
        path = tmp_path / "bare.auto"
        path.write_text(
            "alphabet: a b\nmap a -> a\nmap b -> b a\ninv a -> a\ninv b -> b a^-1\n",
            encoding="utf-8",
        )
        assert main(["graph", str(path)]) == 3
        assert main(["graph", str(path), "--fix", "a; b a b^-1", "--seeds", "b; b^-1"]) == 0

    def test_graph_dot_stdout(self, capsys):
        assert main(["graph", "inner:u=a", "--seeds", "b; b^-1", "--dot", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph dynamics {")


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        main(["graph", "phi_k:k=1", "--dot", "-"])
        first = capsys.readouterr().out
        main(["graph", "phi_k:k=1", "--dot", "-"])
        second = capsys.readouterr().out
        assert first == second

    def test_parabolic_json_stable(self, capsys):
        main(["parabolic", "phi_k:k=2", "b d^-1"])
        first = capsys.readouterr().out
        main(["parabolic", "phi_k:k=2", "b d^-1"])
        assert capsys.readouterr().out == first


class TestRepro:
    def test_list(self, capsys):
        assert main(["repro", "--list"]) == 0
        assert capsys.readouterr().out.split() == [
            "beta6",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "sec2",
        ]

    @pytest.mark.parametrize("scenario", ["sec2", "fig1", "fig2", "fig3", "fig4", "fig5", "beta6"])
    def test_scenarios_match_goldens(self, scenario, capsys):
        assert main(["repro", scenario]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unknown_id(self, capsys):
        assert main(["repro", "fig9"]) == 3

    def test_missing_id(self, capsys):
        assert main(["repro"]) == 3
        assert "scenario id" in capsys.readouterr().err

    def test_mismatching_golden_prints_a_diff(self, monkeypatch, capsys):
        golden = cli._golden_text("sec2.txt")
        line = golden.splitlines(keepends=True)[0]
        monkeypatch.setattr(cli, "_golden_text", lambda filename: golden.replace(line, "changed\n", 1))
        assert main(["repro", "sec2"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("--- golden/sec2.txt\n+++ produced\n")
        assert "\n-changed\n" in out and f"\n+{line}" in out

    def test_sec2_table_content(self, capsys):
        from fgdyn.cli import _golden_text

        golden = _golden_text("sec2.txt")
        expected_words = [
            "b a c^-1 d^-1",
            "b c^-1 c^-1 d^-1",
            "b a^-1 c^-1 a^-2 c^-1 c^-1 d^-1",
            "b a^-2 c^-1 a^-4 c^-1 a^-2 c^-1 c^-1 d^-1",
            "b a^-1 c a^-2 d^-1",
            "b a^-2 c a^-4 c a^-2 d^-1",
            "b a^-3 c a^-6 c a^-4 c a^-2 d^-1",
        ]
        table = [
            line.split(": ", 1)[1]
            for line in golden.splitlines()
            if line.startswith("p=")
        ]
        assert [parse_word(F4, t) for t in table] == [
            parse_word(F4, t) for t in expected_words
        ]


class TestConfigEnvVar:
    def test_config_file_defaults(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_iterations": 5}), encoding="utf-8")
        monkeypatch.setenv("FGDYN_CONFIG", str(cfg_path))
        # 5 iterations cannot certify a 200-letter prefix
        assert main(["omega", "phi_k:k=1", "b"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "not-converged"
        # explicit flag overrides the file
        assert main(["omega", "phi_k:k=1", "b", "--max-iter", "300"]) == 0

    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"min_repeats": 1.5}', '{"max_iterations": true}', '{"period_bound": 6}'],
        ids=["not-json", "float", "bool", "removed-field"],
    )
    def test_bad_config_file(self, tmp_path, monkeypatch, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        monkeypatch.setenv("FGDYN_CONFIG", str(cfg_path))
        assert main(["omega", "phi_k:k=1", "b"]) == 3
