"""Every strategy default lives on one dataclass field.

The `solve` parser sets no defaults and `config_from_options` passes on
only the options it is given, so the command line, a `bench --configs`
entry and the dataclasses agree on what an unset option means.  Every
config field is either set by some `solve` option or named below as set
from Python only, and an option set that would run exactly like the same
set without one of its options is unspellable or rejected.
"""

import argparse
import json
import math
from dataclasses import fields, is_dataclass

import pytest

from branchlab import cli
from branchlab.bench import default_matrix
from branchlab.cli import config_from_options, option_keys, solve_parser
from branchlab.criteria import Criterion, CriterionSpec
from branchlab.driver import VOTE_PANEL, SolveConfig, solve_mip
from branchlab.lookahead import (
    AttractConfig,
    D2Config,
    LookaheadConfig,
    PostWinnow,
)
from branchlab.model import MipProblem
from branchlab.mps import write_mps
from branchlab.winnow import WinnowParams

CONFIG_CLASSES = (SolveConfig, LookaheadConfig, PostWinnow, AttractConfig,
                  D2Config, WinnowParams, CriterionSpec)
PYTHON_ONLY = {"WinnowParams.n2_mid", "WinnowParams.n2_deep",
               "WinnowParams.clist"}

# one valid, non-default value per strategy option
SAMPLES = {
    "criterion": "C5", "p": 0.3, "lambda": 0.5, "w1": 1.0, "w2": 1.0,
    "mu": 0.5, "n0": 3, "n1": 2, "n2": 2, "k2": 5, "vlim": 0.5,
    "lookahead": 3, "postwin": "2a", "lim": 2, "d0": 1, "accept": "path",
    "early_exit": True, "d2": 1.5, "multi_tree": 2, "straddle": True,
    "attract": 2.0, "attract_half": True, "reversals": 0.25,
    "pseudo": "classic", "refset": 0.25, "dval": 2, "eps": 1e-3,
    "integral_eps": True, "max_nodes": 10, "max_time": 5.0,
    "attract_restart": True,
}

# the options each sample is set on top of, where not {"lookahead": 2}:
# an option of an optional object needs the option that switches it on
_POSTWIN = {"lookahead": 2, "postwin": "2b"}
_ATTRACT = {"lookahead": 2, "attract": 3.0}
BASES = {"postwin": _POSTWIN, "lim": _POSTWIN, "d0": _POSTWIN,
         "early_exit": _POSTWIN, "attract": _ATTRACT,
         "attract_half": _ATTRACT, "attract_restart": _ATTRACT,
         "d2": {"d2": 1.0}, "refset": {}}

DEFAULT = SolveConfig(winnow=WinnowParams(spec=SolveConfig().criterion))


def _changed(a, b, out: set):
    """Add Class.field for every field where a and b differ, recursively."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x != y:
            out.add(f"{type(a).__name__}.{f.name}")
            if is_dataclass(x) and is_dataclass(y):
                _changed(x, y, out)


def _instance(tmp_path):
    inst = tmp_path / "k.mps"
    inst.write_text(write_mps(MipProblem(
        name="knap", obj=[-5.0, -4.0], rows=[[-3.0, -2.0]], rhs=[-4.0],
        lower=[0.0, 0.0], upper=[1.0, 1.0], integer_mask=[True, True])))
    return str(inst)


def test_empty_options_give_the_one_default():
    assert config_from_options({}) == DEFAULT


def test_solve_without_flags_runs_the_same_config(tmp_path, monkeypatch,
                                                   capsys):
    seen = []

    def capture(problem, config):
        seen.append(config)
        return solve_mip(problem, config)

    monkeypatch.setattr(cli, "solve_mip", capture)
    assert cli.main(["solve", _instance(tmp_path)]) == 0
    assert seen == [DEFAULT]
    del capsys


def test_option_names_are_the_parser_dests():
    assert set(SAMPLES) == option_keys()
    argv = ["x.mps"]
    for action in solve_parser()._actions:
        if action.dest in SAMPLES:
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(str(SAMPLES[action.dest]))
    parsed = vars(solve_parser().parse_args(argv))
    del parsed["instance"]
    assert parsed == SAMPLES


def test_no_solve_option_carries_a_default():
    assert all(a.default is argparse.SUPPRESS
               for a in solve_parser()._actions)


def test_every_field_is_set_by_an_option_or_python_only():
    reached = set()
    for key, value in SAMPLES.items():
        base_options = BASES.get(key, {"lookahead": 2})
        changed = set()
        _changed(config_from_options({**base_options, key: value}),
                 config_from_options(base_options), changed)
        assert changed, f"option {key!r} changes no config field"
        reached |= changed
    for cls in CONFIG_CLASSES:
        for f in fields(cls):
            name = f"{cls.__name__}.{f.name}"
            assert (name in reached) != (name in PYTHON_ONLY), name


# every look-ahead entry of the default matrix, as a `solve` option set
_LA_D3 = {"criterion": "C1", "lookahead": 3, "k2": 5}
LOOKAHEAD_ENTRIES = {
    "la-d3-2a": {**_LA_D3, "postwin": "2a"},
    "la-d3-2b": {**_LA_D3, "postwin": "2b"},
    "la-d2-mode": {"criterion": "C1", "d2": 1.0},
    "la-straddle": {**_LA_D3, "postwin": "2a", "straddle": True},
    "la-attract": {**_LA_D3, "postwin": "2a", "attract": 3.0},
    "la-reversals": {**_LA_D3, "reversals": 0.5},
}


def test_the_lookahead_matrix_is_reachable_from_the_command_line():
    matrix = default_matrix()
    assert set(LOOKAHEAD_ENTRIES) == {
        name for name, config in matrix.items()
        if config.lookahead is not None}
    for name, options in LOOKAHEAD_ENTRIES.items():
        assert config_from_options(options) == matrix[name], name


def test_vote_ranks_the_winnow_by_the_first_panel_criterion():
    config = config_from_options({"criterion": "vote"})
    assert config == default_matrix()["vote"]
    assert config.winnow.spec == VOTE_PANEL[0]


def test_vote_is_a_plain_branching_criterion():
    vote = CriterionSpec(criterion=Criterion.VOTE)
    with pytest.raises(ValueError, match="vote"):
        SolveConfig(criterion=vote, lookahead=LookaheadConfig())
    with pytest.raises(ValueError, match="vote"):
        config_from_options({"criterion": "vote", "lookahead": 3})


@pytest.mark.parametrize("options", [
    {"postwin": "2a"}, {"lookahead": 0, "straddle": True},
    {"attract": 2.0}, {"early_exit": True}])
def test_lookahead_options_without_lookahead_are_rejected(options):
    with pytest.raises(ValueError, match="needs? lookahead"):
        config_from_options(options)


@pytest.mark.parametrize("options", [
    {"reversals": 0.5}, {"attract": 2.0, "attract_restart": True},
    {"lookahead": 0, "reversals": 0.5, "attract": 2.0,
     "attract_restart": True}])
def test_reversals_and_the_attract_restart_need_lookahead(options):
    with pytest.raises(ValueError, match="need look-?ahead"):
        config_from_options(options)
    config_from_options({**options, "lookahead": 2})


def test_solve_config_rejects_look_ahead_only_actions_without_it():
    # the attract restart is an AttractConfig field: it has no spelling
    # without a look-ahead tree
    for lookahead in (None, D2Config()):
        with pytest.raises(ValueError, match="need look-ahead"):
            SolveConfig(reversal_beta=0.5, lookahead=lookahead)
    SolveConfig(reversal_beta=0.5, lookahead=LookaheadConfig())


_LA = LookaheadConfig()
_D2 = D2Config()

# option sets that once ran exactly like the same set without their
# last option: (the options, the `solve` arguments, the Python spelling).
# Each is unspellable or rejected: an option set naming a key `solve`
# lacks, and a Python spelling passing a field no config has, are
# unspellable.
SILENT = {
    "1-attract_half-without-attract": (
        {"lookahead": 2, "attract_half": True},
        ["--lookahead", "2", "--attract-half"],
        lambda: AttractConfig(enabled=False, half_tree=True)),
    "2-beta-without-reversals": (
        {"lookahead": 2, "beta": 0.1},
        ["--lookahead", "2", "--beta", "0.1"],
        lambda: SolveConfig(lookahead=_LA, beta=0.1)),
    "3-attract_restart-without-attract": (
        {"lookahead": 2, "attract_restart": True},
        ["--lookahead", "2", "--attract-restart"],
        lambda: SolveConfig(lookahead=_LA, attract_restart=True)),
    "4-theta-without-refset": (
        {"theta": 0.25}, ["--theta", "0.25"],
        lambda: SolveConfig(refset=False, refset_theta=0.25)),
    "5-dval-approach-2-under-dfs": (
        {"dval_approach": 2}, ["--dval-approach", "2"],
        lambda: SolveConfig(node_select="dfs", dval_approach=2)),
    "6-refset-with-lookahead": (
        {"lookahead": 2, "refset": 0.5},
        ["--lookahead", "2", "--refset", "0.5"],
        lambda: SolveConfig(lookahead=_LA, refset_theta=0.5)),
    "7-lim-d0-with-postwin-off": (
        {"lookahead": 2, "postwin": "off", "lim": 2, "d0": 1},
        ["--lookahead", "2", "--postwin", "off", "--lim", "2", "--d0", "1"],
        lambda: PostWinnow("off", lim=2, d0=1)),
    "8-early_exit-with-postwin-off": (
        {"lookahead": 2, "early_exit": True},
        ["--lookahead", "2", "--early-exit"],
        lambda: PostWinnow("off", early_exit=True)),
    "9-v-without-d2": (
        {"lookahead": 2, "v": 1.5}, ["--lookahead", "2", "--v", "1.5"],
        lambda: LookaheadConfig(v=1.5)),
    "10-d2-with-lookahead": (
        {"d2": 1.0, "lookahead": 3}, ["--d2", "1", "--lookahead", "3"],
        lambda: D2Config(depth=3)),
    "10-d2-with-straddle": (
        {"d2": 1.0, "straddle": True}, ["--d2", "1", "--straddle"],
        lambda: D2Config(straddle=True)),
    "10-d2-with-multi_tree": (
        {"d2": 1.0, "multi_tree": 2}, ["--d2", "1", "--multi-tree", "2"],
        lambda: D2Config(n_trees=2)),
    "10-d2-with-postwin": (
        {"d2": 1.0, "postwin": "2a"}, ["--d2", "1", "--postwin", "2a"],
        lambda: D2Config(postwin=PostWinnow("2a"))),
    "10-d2-with-accept-path": (
        {"d2": 1.0, "accept": "path"}, ["--d2", "1", "--accept", "path"],
        lambda: D2Config(accept="path")),
    "11-d2-with-n0": (
        {"d2": 1.0, "n0": 3}, ["--d2", "1", "--n0", "3"],
        lambda: SolveConfig(lookahead=_D2, winnow=WinnowParams(n0=3))),
    "11-d2-with-n1": (
        {"d2": 1.0, "n1": 2}, ["--d2", "1", "--n1", "2"],
        lambda: SolveConfig(lookahead=_D2, winnow=WinnowParams(n1=2))),
    "11-d2-with-n2": (
        {"d2": 1.0, "n2": 2}, ["--d2", "1", "--n2", "2"],
        lambda: SolveConfig(lookahead=_D2, winnow=WinnowParams(n2_root=2))),
    "11-d2-with-k2": (
        {"d2": 1.0, "k2": 5}, ["--d2", "1", "--k2", "5"],
        lambda: SolveConfig(lookahead=_D2, winnow=WinnowParams(k2=5))),
    "12-d2-with-pseudo": (
        {"d2": 1.0, "pseudo": "classic"},
        ["--d2", "1", "--pseudo", "classic"],
        lambda: SolveConfig(lookahead=_D2, pseudo="classic")),
    "13-d2-with-attract": (
        {"d2": 1.0, "attract": 2.0}, ["--d2", "1", "--attract", "2"],
        lambda: D2Config(attract=AttractConfig(threshold=2.0))),
    "14-d2-with-reversals": (
        {"d2": 1.0, "reversals": 0.5}, ["--d2", "1", "--reversals", "0.5"],
        lambda: SolveConfig(lookahead=_D2, reversal_beta=0.5)),
}


@pytest.mark.parametrize("options, argv, spell", SILENT.values(),
                         ids=list(SILENT))
def test_an_option_that_would_change_nothing_is_refused(
        options, argv, spell, tmp_path, capsys):
    if set(options) <= option_keys():
        with pytest.raises(ValueError):
            config_from_options(options)
    with pytest.raises((ValueError, TypeError)) as err:
        spell()
    if err.type is TypeError:
        assert "unexpected keyword argument" in str(err.value)
    try:
        code = cli.main(["solve", _instance(tmp_path), *argv])
    except SystemExit as exit:          # argparse refuses the spelling
        code = exit.code
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and not captured.out


@pytest.mark.parametrize("options, argv", [
    ({"lookahead": 3, "reversals": 5.0},
     ["--lookahead", "3", "--reversals", "5"]),
    ({"lookahead": 3, "reversals": -2.0},
     ["--lookahead", "3", "--reversals", "-2"]),
    ({"refset": 7.0}, ["--refset", "7"]),
    ({"refset": -0.1}, ["--refset", "-0.1"]),
], ids=["reversals-5", "reversals-minus-2", "refset-7", "refset-minus"])
def test_convex_weights_outside_the_unit_interval_are_refused(
        options, argv, tmp_path, capsys):
    with pytest.raises(ValueError, match=r"convex weight in \[0, 1\]"):
        config_from_options(options)
    assert cli.main(["solve", _instance(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and not captured.out


@pytest.mark.parametrize("trees", [0, -1])
def test_fewer_than_one_tree_is_refused(trees, tmp_path, capsys):
    # `--multi-tree 0` once ran one tree, as without the option
    options = {"lookahead": 2, "multi_tree": trees}
    with pytest.raises(ValueError, match="n_trees >= 1"):
        config_from_options(options)
    argv = ["--lookahead", "2", "--multi-tree", str(trees)]
    assert cli.main(["solve", _instance(tmp_path), *argv]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and not captured.out


def test_convex_weights_take_both_ends_of_the_unit_interval():
    for weight in (0.0, 1.0):
        SolveConfig(lookahead=LookaheadConfig(), reversal_beta=weight)
        SolveConfig(refset_theta=weight)


@pytest.mark.parametrize("options, argv", [
    ({"eps": math.inf}, ["--eps", "inf"]),
    ({"eps": math.nan}, ["--eps", "nan"]),
    ({"eps": -1.0}, ["--eps", "-1"]),
    ({"p": math.nan}, ["--p", "nan"]),
    ({"w1": math.nan}, ["--w1", "nan"]),
    ({"w2": math.nan}, ["--w2", "nan"]),
    ({"max_time": math.nan}, ["--max-time", "nan"]),
    ({"lookahead": 3, "attract": math.nan},
     ["--lookahead", "3", "--attract", "nan"]),
    ({"n1": math.nan}, None),
    ({"lookahead": 2, "postwin": "2a", "lim": math.nan}, None),
], ids=["eps-inf", "eps-nan", "eps-minus", "p-nan", "w1-nan", "w2-nan",
        "max-time-nan", "attract-nan", "n1-nan", "lim-nan"])
def test_non_finite_eps_and_nan_options_are_refused(options, argv, tmp_path,
                                                    capsys):
    # `--eps inf` once ended `optimal` at a worse objective, and `--eps
    # nan` turned pruning off
    with pytest.raises(ValueError):
        config_from_options(options)
    if argv is not None:
        assert cli.main(["solve", _instance(tmp_path), *argv]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and not captured.out
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps({"configs": {"bad": options}}))
    assert cli.main(["bench", str(tmp_path), "--configs", str(configs)]) == 2
    assert "error: config 'bad'" in capsys.readouterr().err


def test_eps_zero_and_an_unlimited_time_stay_legal():
    config_from_options({"eps": 0.0, "max_time": math.inf})
