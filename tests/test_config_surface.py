"""Every strategy default lives on one dataclass field.

The `solve` parser sets no defaults and `config_from_options` passes on
only the options it is given, so the command line, a `bench --configs`
entry and the dataclasses agree on what an unset option means.  Every
config field is either set by some `solve` option or named below as set
from Python only.
"""

import argparse
from dataclasses import fields, is_dataclass

import pytest

from branchlab import cli
from branchlab.bench import default_matrix
from branchlab.cli import config_from_options, option_keys, solve_parser
from branchlab.criteria import Criterion, CriterionSpec
from branchlab.driver import VOTE_PANEL, ReversalConfig, SolveConfig, solve_mip
from branchlab.lookahead import LookaheadConfig
from branchlab.model import MipProblem
from branchlab.mps import write_mps
from branchlab.winnow import WinnowParams

PYTHON_ONLY = {"SolveConfig.dump_extended", "WinnowParams.n2_mid",
               "WinnowParams.n2_deep", "CriterionSpec.flavor",
               "WinnowParams.clist"}

# one valid, non-default value per strategy option
SAMPLES = {
    "criterion": "C5", "p": 0.3, "lambda": 0.5, "w1": 1.0, "w2": 1.0,
    "mu": 0.5, "n0": 3, "n1": 2, "n2": 2, "k2": 5, "vlim": 0.5,
    "lookahead": 3, "postwin": "2a", "lim": 2, "d0": 1, "accept": "path",
    "early_exit": True, "d2_mode": True, "v": 1.5, "multi_tree": 2,
    "straddle": True, "attract": 2.0, "attract_half": True,
    "reversals": True, "beta": 0.25, "pseudo": "classic", "refset": True,
    "theta": 0.25, "node_select": "dval", "dval_approach": 2, "eps": 1e-3,
    "integral_eps": True, "max_nodes": 10, "max_time": 5.0,
    "attract_restart": True,
}

DEFAULT = SolveConfig(winnow=WinnowParams(spec=SolveConfig().criterion))


def _changed(a, b, out: set):
    """Add Class.field for every field where a and b differ, recursively."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x != y:
            out.add(f"{type(a).__name__}.{f.name}")
            if is_dataclass(x) and is_dataclass(y):
                _changed(x, y, out)


def test_empty_options_give_the_one_default():
    assert config_from_options({}) == DEFAULT


def test_solve_without_flags_runs_the_same_config(tmp_path, monkeypatch,
                                                   capsys):
    seen = []

    def capture(problem, config):
        seen.append(config)
        return solve_mip(problem, config)

    monkeypatch.setattr(cli, "solve_mip", capture)
    inst = tmp_path / "k.mps"
    inst.write_text(write_mps(MipProblem(
        name="knap", obj=[-5.0, -4.0], rows=[[-3.0, -2.0]], rhs=[-4.0],
        lower=[0.0, 0.0], upper=[1.0, 1.0], integer_mask=[True, True])))
    assert cli.main(["solve", str(inst)]) == 0
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
    base_options = {"lookahead": 2}
    base = config_from_options(base_options)
    reached = set()
    for key, value in SAMPLES.items():
        changed = set()
        _changed(config_from_options({**base_options, key: value}), base,
                 changed)
        assert changed, f"option {key!r} changes no config field"
        reached |= changed
    for cls in (SolveConfig, LookaheadConfig, WinnowParams, CriterionSpec):
        for f in fields(cls):
            name = f"{cls.__name__}.{f.name}"
            assert (name in reached) != (name in PYTHON_ONLY), name


# every look-ahead entry of the default matrix, as a `solve` option set
_LA_D3 = {"criterion": "C1", "lookahead": 3, "k2": 5}
LOOKAHEAD_ENTRIES = {
    "la-d3-2a": {**_LA_D3, "postwin": "2a"},
    "la-d3-2b": {**_LA_D3, "postwin": "2b"},
    "la-d2-mode": {"criterion": "C1", "d2_mode": True},
    "la-straddle": {**_LA_D3, "postwin": "2a", "straddle": True},
    "la-attract": {**_LA_D3, "postwin": "2a", "attract": 3.0},
    "la-reversals": {**_LA_D3, "reversals": True},
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
    with pytest.raises(ValueError, match="need a nonzero lookahead"):
        config_from_options(options)


@pytest.mark.parametrize("options", [
    {"reversals": True}, {"attract_restart": True},
    {"lookahead": 0, "reversals": True, "attract_restart": True}])
def test_reversals_and_the_attract_restart_need_lookahead(options):
    with pytest.raises(ValueError, match="need look-ahead"):
        config_from_options(options)
    config_from_options({**options, "lookahead": 2})


def test_solve_config_rejects_look_ahead_only_actions_without_it():
    for config in ({"reversal": ReversalConfig(enabled=True)},
                   {"attract_restart": True}):
        with pytest.raises(ValueError, match="need look-ahead"):
            SolveConfig(**config)
        SolveConfig(lookahead=LookaheadConfig(), **config)
