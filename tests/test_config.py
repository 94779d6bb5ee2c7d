"""Config grammar: round trips, defaults, and line-numbered errors."""

import dataclasses
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netlms.config import (
    ExcitationConfig,
    ExperimentConfig,
    GainConfig,
    GraphConfig,
    NoiseConfig,
    RegressionConfig,
    get_preset,
    parse_config,
    preset_names,
    render_config,
    with_overrides,
)
from netlms.errors import ConfigError
from netlms.noise import NOISE_KINDS

MINIMAL = """
[experiment]
horizon = 10

[model]
nodes = 2
dim = 2
node_dims = 1 1
x0 = 1.0 0.0
init_1 = 0.0 0.0
init_2 = 0.0 0.0

[graph]
kind = iid-uniform
low = 0.0
high = 1.0

[regression]
kind = fixed
h_1 = 1.0 0.0
h_2 = 0.0 1.0

[gains]
a_coef = 1.0
a_exp = 0.6
b_coef = 1.0
b_exp = 0.6
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "custom" and cfg.seed == 0 and cfg.runs == 1
    assert cfg.node_dims == (1, 1)
    assert cfg.gains.lambda_coef == 0.0
    assert cfg.noise.sigma_f == 0.1
    assert cfg.excitation.window == 2


def test_node_dims_default_is_square():
    text = MINIMAL.replace("node_dims = 1 1\n", "").replace(
        "h_1 = 1.0 0.0", "h_1 = 1.0 0.0 ; 0.0 0.0"
    ).replace("h_2 = 0.0 1.0", "h_2 = 0.0 1.0 ; 0.0 0.0")
    cfg = parse_config(text)
    assert cfg.node_dims == (2, 2)


def test_node_dims_mismatch_rejected():
    text = MINIMAL.replace("node_dims = 1 1", "node_dims = 2 1")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "row counts" in str(err.value)


def test_every_preset_round_trips():
    for name in preset_names():
        cfg = get_preset(name)
        again = parse_config(render_config(cfg))
        assert again == cfg
        # rendering is canonical: render(parse(render(c))) == render(c)
        assert render_config(again) == render_config(cfg)


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace("horizon = 10", "horizon = 10  # inline comment")
    cfg = parse_config("# leading comment\n" + text)
    assert cfg.horizon == 10


def test_unknown_section_reports_line():
    text = MINIMAL + "\n[telemetry]\nrate = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "telemetry" in str(err.value)
    assert err.value.line == MINIMAL.count("\n") + 2


def test_unknown_key_reports_line_and_section():
    text = MINIMAL.replace("low = 0.0", "low = 0.0\nwobble = 3")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "wobble" in str(err.value) and "[graph]" in str(err.value)
    assert err.value.line == text.splitlines().index("wobble = 3") + 1


def test_missing_required_key():
    text = MINIMAL.replace("horizon = 10", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "horizon" in str(err.value)


def test_missing_section():
    text = MINIMAL.replace("[gains]", "[noise]").replace("a_coef = 1.0", "")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "gains" in str(err.value)


def test_type_errors_carry_line_numbers():
    text = MINIMAL.replace("horizon = 10", "horizon = soon")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == text.splitlines().index("horizon = soon") + 1
    assert "integer" in str(err.value)


def test_duplicate_key_rejected():
    text = MINIMAL.replace("low = 0.0", "low = 0.0\nlow = 0.5")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "duplicate" in str(err.value)


def test_ragged_matrix_rejected():
    text = MINIMAL.replace("h_1 = 1.0 0.0", "h_1 = 1.0 0.0 ; 1.0")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "equally long" in str(err.value)


def test_key_outside_section():
    with pytest.raises(ConfigError) as err:
        parse_config("horizon = 5\n" + MINIMAL)
    assert err.value.line == 1


def test_shape_mismatch_caught_by_validation():
    text = MINIMAL.replace("x0 = 1.0 0.0", "x0 = 1.0 0.0 3.0")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_with_overrides():
    cfg = get_preset("setting-iii")
    out = with_overrides(cfg, seed=7, runs=3, horizon=123)
    assert (out.seed, out.runs, out.horizon) == (7, 3, 123)
    # untouched fields survive
    assert out.gains == cfg.gains and out.name == cfg.name
    # None leaves everything alone
    assert with_overrides(cfg) == cfg


def test_get_preset_case_insensitive():
    assert get_preset("SETTING-I") == get_preset("setting-i")
    with pytest.raises(Exception):
        get_preset("setting-xyz")


def test_omitted_keys_take_the_dataclass_defaults():
    """MINIMAL gives the [gains] keys at GainConfig's defaults and omits
    the lambda keys, [noise] and [excitation]."""
    cfg = parse_config(MINIMAL)
    assert cfg.gains == GainConfig()
    assert cfg.noise == NoiseConfig() and cfg.excitation == ExcitationConfig()


def test_fractional_node_dims_rejected():
    text = MINIMAL.replace("node_dims = 1 1", "node_dims = 1.7 1")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "integers" in str(err.value)
    assert err.value.line == text.splitlines().index("node_dims = 1.7 1") + 1


@pytest.mark.parametrize(
    "section, line",
    [
        ("noise", "channel_kind = gausian"),
        ("noise", "measurement_kind = laplace"),
        ("noise", "measurement_std = -2"),
        ("noise", "channel_std = inf"),
        ("noise", "sigma_f = -0.1"),
        ("noise", "sigma_f = nan"),
        ("noise", "b_f = nan"),
        ("gains", "lambda_coef = -1.0"),
        ("gains", "lambda_exp = nan"),
        ("gains", "b_exp = inf"),
        # the excitation thresholds too: a NaN would read as a passing audit
        ("excitation", "theta1 = nan"),
        ("excitation", "theta1 = -0.5"),
        ("excitation", "theta2 = -3"),
        ("excitation", "theta2 = inf"),
        ("excitation", "rho0 = nan"),
        ("excitation", "rho0 = 0"),
        ("excitation", "rho0 = -1"),
        ("excitation", "rho0 = inf"),
    ],
)
def test_noise_and_gain_values_outside_the_premises_rejected(section, line):
    key = line.split(" = ")[0]
    if section == "gains":  # MINIMAL ends in [gains]
        text = re.sub(rf"^{key} = .*$\n?", "", MINIMAL, flags=re.M) + line + "\n"
    else:
        text = MINIMAL + f"\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert f"[{section}] {key}" in str(err.value)


@pytest.mark.parametrize(
    "section, change, message",
    [
        ("graph", {"low": 0.3}, "[graph] low is not read by kind 'alternating-uniform'"),
        ("regression", {"active_prob": 0.5},
         "[regression] active_prob is not read by kind 'entrywise-uniform'"),
    ],
    ids=["graph-low", "regression-active_prob"],
)
def test_a_field_its_kind_does_not_read_is_rejected(section, change, message):
    """The config text leaves such a field out, so it would not round-trip."""
    cfg = get_preset("setting-i")
    part = dataclasses.replace(getattr(cfg, section), **change)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, **{section: part})
    assert message in str(err.value)


IID_GRAPH = "kind = iid-uniform\nlow = 0.0\nhigh = 1.0"
FIXED_REGRESSION = "kind = fixed\nh_1 = 1.0 0.0\nh_2 = 0.0 1.0"


def _extra_regression_node(cfg):
    rows = cfg.regression.h_nodes + (((1.0, 1.0),),)
    return dataclasses.replace(cfg, regression=dataclasses.replace(cfg.regression, h_nodes=rows))


def _replace(**changes):
    return lambda cfg: dataclasses.replace(cfg, **changes)


# each case changes one thing in MINIMAL: an (old, new) text edit, or a
# function of the parsed config where the parser cannot produce the input;
# the message must hold every fragment, and a parser error must carry the
# number of the given line
CONFIG_ERRORS = [
    # ExperimentConfig.__post_init__, which every way of building a config runs
    pytest.param(("horizon = 10", "horizon = 10\nseed = -1"), ["[experiment] seed"], None, id="seed"),
    pytest.param(("horizon = 10", "horizon = -1"), ["[experiment] horizon"], None, id="horizon"),
    pytest.param(("horizon = 10", "horizon = 10\nruns = 0"), ["[experiment] runs"], None, id="runs"),
    pytest.param(("horizon = 10", "horizon = 10\nrecord_every = 0"), ["[experiment] record_every"],
                 None, id="record_every"),
    pytest.param(("dim = 2", "dim = 0"), ["[model] nodes and dim"], None, id="dim"),
    pytest.param(("node_dims = 1 1", "node_dims = 1 1 1"), ["[model] node_dims"], None, id="node_dims"),
    pytest.param(("init_1 = 0.0 0.0", "init_1 = 0.0"), ["[model]", "init_1"], None, id="init"),
    pytest.param(("x0 = 1.0 0.0", "x0 = nan 0.0"), ["[model] x0 must be finite, got nan 0.0"], None,
                 id="x0-nan"),
    pytest.param(("init_2 = 0.0 0.0", "init_2 = 0.0 inf"), ["[model] init_2 must be finite, got 0.0 inf"],
                 None, id="init-inf"),
    pytest.param(("[gains]", "[excitation]\nwindow = 0\n\n[gains]"), ["[excitation] window"], None,
                 id="window"),
    pytest.param((IID_GRAPH, "kind = fixed\nadjacency = 1 1 ; 1 0"),
                 ["[graph] adjacency has nonzero diagonal entries"], None, id="process-error"),
    pytest.param((IID_GRAPH, "kind = fixed\nadjacency = 0 1 1 ; 1 0 1 ; 1 1 0"),
                 ["[graph] describes 3 nodes", "[model] has 2"], None, id="graph-nodes"),
    pytest.param(_extra_regression_node, ["[regression] describes 3 nodes", "[model] has 2"], None,
                 id="regression-nodes"),
    pytest.param(("h_1 = 1.0 0.0\nh_2 = 0.0 1.0", "h_1 = 1.0 0.0 0.0\nh_2 = 0.0 1.0 0.0"),
                 ["[regression] column count 3", "dim 2"], None, id="regression-columns"),
    pytest.param((FIXED_REGRESSION, "kind = ar-driven\nar_init = 0 0 0 ; 0 0 0"),
                 ["[regression] ar_init"], None, id="ar_init"),
    pytest.param((FIXED_REGRESSION, "kind = ar-driven\nar_init = 0 0 ; nan 0"),
                 ["[regression] ar_init must be 2 rows of 2 finite entries"], None, id="ar_init-nan"),
    pytest.param(_replace(node_dims=(1, 1, 1)), ["[model] node_dims must list one positive row count"],
                 None, id="replace-node_dims"),
    pytest.param(_replace(nodes=3), ["[model] node_dims must list one positive row count"], None,
                 id="replace-nodes"),
    pytest.param(_replace(node_dims=(1, 2)), ["[regression] row counts (1, 1) do not match node_dims (1, 2)"],
                 None, id="replace-row-counts"),
    # an integer key holds an integer
    pytest.param(_replace(horizon=10.5), ["[experiment] horizon must be an integer, got 10.5"], None,
                 id="horizon-float"),
    pytest.param(_replace(seed=3.0), ["[experiment] seed must be an integer, got 3.0"], None,
                 id="seed-float"),
    pytest.param(_replace(runs="2"), ["[experiment] runs must be an integer, got '2'"], None,
                 id="runs-str"),
    pytest.param(_replace(record_every=2.5), ["[experiment] record_every must be an integer, got 2.5"],
                 None, id="record_every-float"),
    pytest.param(_replace(nodes=2.0), ["[model] nodes must be an integer, got 2.0"], None,
                 id="nodes-float"),
    pytest.param(_replace(dim=None), ["[model] dim must be an integer, got None"], None, id="dim-none"),
    pytest.param(_replace(node_dims=(1, 1.5)), ["[model] node_dims entry 2 must be an integer, got 1.5"],
                 None, id="node_dims-float"),
    pytest.param(_replace(excitation=ExcitationConfig(window=2.0)),
                 ["[excitation] window must be an integer, got 2.0"], None, id="window-float"),
    pytest.param(_replace(graph=GraphConfig("iid-uniform", initial_state=0.5)),
                 ["[graph] initial_state must be an integer, got 0.5"], None, id="initial_state-float"),
    # a float key holds a number: math.isfinite would raise a TypeError
    pytest.param(_replace(noise=NoiseConfig(measurement_std="1")),
                 ["[noise] measurement_std must be finite and nonnegative, got '1'"], None,
                 id="measurement_std-str"),
    pytest.param(_replace(x0=("5", 4.0)), ["[model] x0 must be finite, got ('5', 4.0)"], None,
                 id="x0-str"),
    pytest.param(_replace(gains=GainConfig(a_exp=None)),
                 ["[gains] a_exp must be finite and nonnegative, got None"], None, id="a_exp-none"),
    pytest.param(_replace(excitation=ExcitationConfig(rho0="5")),
                 ["[excitation] rho0 must be finite and positive, got '5'"], None, id="rho0-str"),
    pytest.param(_replace(init=((0.0, None), (0.0, 0.0))), ["[model] init_1 must be finite"], None,
                 id="init-none"),
    pytest.param(_replace(regression=RegressionConfig(
                     kind="bernoulli-failure", coef=(((1.0, 0.0),), ((0.0, 1.0),)), active_prob="0.5")),
                 ["[regression] active_prob must be a number in [0, 1], got '0.5'"], None,
                 id="active_prob-str"),
    # the parser
    pytest.param(("kind = iid-uniform", "kind = bogus"), ["[graph] unknown kind 'bogus'"],
                 "kind = bogus", id="unknown-kind"),
    pytest.param(("nodes = 2", "nodes = 0"), ["[model] nodes must be positive"], "nodes = 0",
                 id="node-count"),
    pytest.param((IID_GRAPH, "kind = markov-switching\nstates = 0\ntransition = 1"),
                 ["[graph] states must be positive"], "states = 0", id="state-count"),
    pytest.param(("[graph]", "[graph"), ["malformed section header", "'[graph'"], "[graph",
                 id="malformed-header"),
    pytest.param(("[gains]", "[graph]  # again\n[gains]"), ["duplicate section [graph]"],
                 "[graph]  # again", id="duplicate-section"),
    pytest.param(("low = 0.0", "low 0.0"), ["[graph] expected 'key = value'"], "low 0.0",
                 id="no-equals"),
    pytest.param(("low = 0.0", "= 0.0"), ["[graph] empty key"], "= 0.0", id="empty-key"),
    # where the files go is not part of the experiment
    pytest.param(("horizon = 10", "horizon = 10\nout = x"), ["unknown key 'out' in [experiment]"],
                 "out = x", id="out"),
]


@pytest.mark.parametrize("edit, fragments, line", CONFIG_ERRORS)
def test_each_config_error_names_its_section_key_and_line(edit, fragments, line):
    if callable(edit):
        with pytest.raises(ConfigError) as err:
            edit(parse_config(MINIMAL))  # the replace builds the config
    else:
        old, new = edit
        assert MINIMAL.count(old) == 1
        text = MINIMAL.replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
    for fragment in fragments:
        assert fragment in str(err.value)
    assert err.value.line == (None if line is None else text.splitlines().index(line) + 1)


FIXED_TWO = "kind = fixed\nh_1 = 1.0 0.0\nh_2 = 0.0 1.0"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("low = 0.0", "low = 2.0", "[graph] low and high must be finite with low <= high, got 2.0 and 1.0"),
        ("high = 1.0", "high = inf", "[graph] low and high must be finite"),
        (IID_GRAPH, "kind = alternating-uniform\neven_low = 0.0\neven_high = -1.0\nodd_low = 0.0\n"
         "odd_high = 1.0", "[graph] even_low and even_high must be finite with even_low <= even_high"),
        (IID_GRAPH, "kind = alternating-uniform\neven_low = 0.0\neven_high = 1.0\nodd_low = nan\n"
         "odd_high = 1.0", "[graph] odd_low and odd_high must be finite"),
        (IID_GRAPH, "kind = markov-switching\nstates = 2\nstate_1 = 0 1 ; 1 0\n"
         "state_2 = 0 1 1 ; 1 0 1 ; 1 1 0\ntransition = 0.5 0.5 ; 0.5 0.5",
         "[graph] state_2 and state_1 differ in column count (3 vs 2)"),
        ("h_2 = 0.0 1.0", "h_2 = 0.0 1.0 0.0", "[regression] h_2 and h_1 differ in column count (3 vs 2)"),
        (FIXED_TWO, "kind = entrywise-uniform\nbase_1 = 1.0 0.0\nbase_2 = 0.0\n"
         "coef_1 = 1.0 0.0\ncoef_2 = 0.0 1.0", "[regression] base_2 and base_1 differ in column count"),
        (FIXED_TWO, "kind = entrywise-uniform\nbase_1 = 1.0 0.0\nbase_2 = 0.0 1.0\n"
         "coef_1 = 1.0 0.0\ncoef_2 = 0.0 1.0\nlow = 0.5\nhigh = 0.25",
         "[regression] low and high must be finite with low <= high, got 0.5 and 0.25"),
        (FIXED_TWO, "kind = bernoulli-failure\npattern_1 = 1.0 0.0\npattern_2 = 0.0 1.0 1.0\n"
         "active_prob = 0.5", "[regression] pattern_2 and pattern_1 differ in column count (3 vs 2)"),
    ],
    ids=["iid-low", "iid-high", "even-range", "odd-range", "state_2", "h_2", "base_2",
         "regression-range", "pattern_2"],
)
def test_process_errors_name_the_config_keys(old, new, message):
    """A range or a per-node matrix that its process rejects is reported
    by the keys of the config text, not by the builder's parameters."""
    assert MINIMAL.count(old) == 1
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL.replace(old, new))
    assert message in str(err.value)


# ---------------------------------------------------------------------------
# round trip over every graph and regression kind

GRAPH_KINDS = ("fixed", "alternating-uniform", "iid-uniform", "markov-switching")
REGRESSION_KINDS = ("fixed", "entrywise-uniform", "bernoulli-failure", "ar-driven")
# mostly floats whose shortest repr needs 17 digits, plus a few that do
# (0.1 + 0.2) or that sit at the edges of the format
FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.1 + 0.2, 1 / 3, 5e-324, -0.0, 1e300]),
)
NONNEGATIVE = FLOATS.map(abs)
POSITIVE = NONNEGATIVE.filter(lambda v: v > 0)
WORDS = st.text("abcxyz019-_", min_size=1, max_size=8)


def _random_config(draw, graph_kind, regression_kind) -> ExperimentConfig:
    nodes, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ar = regression_kind == "ar-driven"
    node_dims = (1,) * nodes if ar else tuple(draw(st.integers(1, 3)) for _ in range(nodes))

    def vector(n):
        return tuple(draw(FLOATS) for _ in range(n))

    def matrices(shapes):
        return tuple(tuple(vector(dim) for _ in range(rows)) for rows in shapes)

    def low_high():
        return sorted(draw(FLOATS) for _ in range(2))

    def adjacency():
        return tuple(tuple(0.0 if i == j else draw(FLOATS) for j in range(nodes)) for i in range(nodes))

    if graph_kind == "fixed":
        graph = GraphConfig(graph_kind, adjacency=adjacency())
    elif graph_kind == "alternating-uniform":
        (even_low, even_high), (odd_low, odd_high) = low_high(), low_high()
        graph = GraphConfig(graph_kind, even_low=even_low, even_high=even_high,
                            odd_low=odd_low, odd_high=odd_high)
    elif graph_kind == "iid-uniform":
        low, high = low_high()
        graph = GraphConfig(graph_kind, low=low, high=high)
    else:
        n_states = draw(st.integers(1, 3))
        weights = [[draw(st.floats(0.01, 1.0)) for _ in range(n_states)] for _ in range(n_states)]
        graph = GraphConfig(
            graph_kind,
            states=tuple(adjacency() for _ in range(n_states)),
            transition=tuple(tuple(w / sum(row) for w in row) for row in weights),
            initial_state=draw(st.integers(0, n_states - 1)),
        )

    if regression_kind == "fixed":
        reg = RegressionConfig(regression_kind, h_nodes=matrices(node_dims))
    elif regression_kind == "entrywise-uniform":
        low, high = low_high()
        base, coef = matrices(node_dims), matrices(node_dims)
        # the law rejects a range and cells whose draws can overflow
        reach = max(abs(low), abs(high))
        assume(math.isfinite(high - low) and all(
            math.isfinite(abs(b) + abs(c) * reach)
            for bm, cm in zip(base, coef) for br, cr in zip(bm, cm) for b, c in zip(br, cr)))
        reg = RegressionConfig(regression_kind, base=base, coef=coef, low=low, high=high)
    elif regression_kind == "bernoulli-failure":
        reg = RegressionConfig(regression_kind, coef=matrices(node_dims),
                               active_prob=draw(st.floats(0.0, 1.0)))
    else:
        ar_init = matrices([nodes])[0] if draw(st.booleans()) else None
        reg = RegressionConfig(regression_kind, ar_init=ar_init)

    return ExperimentConfig(
        name=draw(WORDS),
        seed=draw(st.integers(0, 2**64)),
        horizon=draw(st.integers(0, 10**6)),
        runs=draw(st.integers(1, 100)),
        record_every=draw(st.integers(1, 1000)),
        nodes=nodes,
        dim=dim,
        node_dims=node_dims,
        x0=vector(dim),
        init=tuple(vector(dim) for _ in range(nodes)),
        graph=graph,
        regression=reg,
        noise=NoiseConfig(
            measurement_kind=draw(st.sampled_from(NOISE_KINDS)),
            measurement_std=draw(NONNEGATIVE),
            channel_kind=draw(st.sampled_from(NOISE_KINDS)),
            channel_std=draw(NONNEGATIVE),
            sigma_f=draw(NONNEGATIVE),
            b_f=draw(NONNEGATIVE),
        ),
        gains=GainConfig(*(draw(NONNEGATIVE) for _ in range(6))),
        excitation=ExcitationConfig(
            window=draw(st.integers(1, 50)),
            theta1=draw(NONNEGATIVE),
            theta2=draw(NONNEGATIVE),
            rho0=draw(POSITIVE),
        ),
    )


@pytest.mark.parametrize("graph_kind", GRAPH_KINDS)
@pytest.mark.parametrize("regression_kind", REGRESSION_KINDS)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_kind_round_trips(graph_kind, regression_kind, data):
    cfg = _random_config(data.draw, graph_kind, regression_kind)
    text = render_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert render_config(again) == text
    # an optional key left unset is left out
    assert ("\nar_init = " in text) == (cfg.regression.ar_init is not None)
