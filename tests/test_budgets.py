import pytest

from gpaley.budgets import DEFAULTS, budget, require
from gpaley.cli import dispatch
from gpaley.errors import BudgetExceeded
from gpaley.field import get_field
from gpaley.graphs import GraphSpec, build_graph
from gpaley.oracles import count_trees_bruteforce, run_suite


def test_defaults(monkeypatch):
    monkeypatch.delenv("GPG_MAX_ORDER", raising=False)
    assert DEFAULTS == {
        "table": 2**22,
        "graph": 2**13,
        "tree": 512,
        "coset": 1024,
        "arc": 256,
    }
    for kind, default in DEFAULTS.items():
        assert budget(kind) == default


def test_precedence(monkeypatch):
    monkeypatch.setenv("GPG_MAX_ORDER", "100")
    for kind in DEFAULTS:
        assert budget(kind) == 100  # the environment overrides every default
        assert budget(kind, 7) == 7  # an explicit value overrides the environment
        assert budget(kind, 0) == 0  # 0 is a value, not "unset"
        assert budget(kind, 10**6) == 10**6


def test_environment_raises_only_the_materialization_caps(monkeypatch):
    monkeypatch.setenv("GPG_MAX_ORDER", str(2**30))
    assert budget("table") == budget("graph") == 2**30
    for kind in ("tree", "coset", "arc"):
        assert budget(kind) == DEFAULTS[kind]


def test_unknown_kind():
    with pytest.raises(KeyError):
        budget("matrix")


def test_require_admits_the_limit_and_refuses_one_more(monkeypatch):
    monkeypatch.delenv("GPG_MAX_ORDER", raising=False)
    for kind, limit in DEFAULTS.items():
        require(kind, limit)
        with pytest.raises(BudgetExceeded) as refused:
            require(kind, limit + 1)
        assert str(refused.value) == f"{limit + 1} exceeds the {kind} budget {limit}"
        require(kind, 7, 7)
        with pytest.raises(BudgetExceeded, match=f"^8 exceeds the {kind} budget 7$"):
            require(kind, 8, 7)


def test_non_integer_environment_is_named(monkeypatch, capsys):
    monkeypatch.setenv("GPG_MAX_ORDER", "abc")
    with pytest.raises(ValueError, match="GPG_MAX_ORDER='abc'"):
        budget("graph")
    assert dispatch(["verify", "--p", "2", "--m", "4", "--ell", "1"]) == 1
    assert "GPG_MAX_ORDER='abc' is not an integer" in capsys.readouterr().err


def test_negative_environment_is_named(monkeypatch, capsys):
    # -1 used to refuse every size, where --max-order -1 is a usage error
    monkeypatch.setenv("GPG_MAX_ORDER", "-1")
    with pytest.raises(ValueError, match="^GPG_MAX_ORDER='-1' is negative$"):
        budget("graph")
    assert dispatch(["graph", "--p", "2", "--m", "4", "--ell", "1"]) == 1
    assert "GPG_MAX_ORDER='-1' is negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "explicit, message",
    [(2.5, "must be an integer, not 2.5"), (True, "must be an integer, not True"),
     (-3, "must be 0 or more, not -3")],
)
def test_an_explicit_budget_that_is_not_a_size_is_refused(explicit, message):
    # as GPG_MAX_ORDER is: 2.5 used to be a limit, and -3 refused every size
    for kind in DEFAULTS:
        with pytest.raises(ValueError, match=f"^the {kind} budget {message}$"):
            require(kind, 16, explicit)
    with pytest.raises(ValueError):
        build_graph(GraphSpec(2, 1, 4, 1), max_order=-3)


def test_explicit_zero_refuses_every_size():
    # every entry that takes max_order refuses the smallest size at 0
    with pytest.raises(BudgetExceeded):
        get_field(2, 1, 1, max_order=0)
    with pytest.raises(BudgetExceeded):
        build_graph(GraphSpec(2, 1, 2, 1), max_order=0)
    with pytest.raises(BudgetExceeded):
        run_suite(GraphSpec(2, 1, 2, 1), max_order=0)


def test_environment_caps_the_oracles(monkeypatch):
    g = build_graph(GraphSpec(2, 1, 4, 1))
    monkeypatch.setenv("GPG_MAX_ORDER", "8")
    with pytest.raises(BudgetExceeded):
        count_trees_bruteforce(g)
    monkeypatch.delenv("GPG_MAX_ORDER")
    assert count_trees_bruteforce(g) == 2**31
