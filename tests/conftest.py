"""Configurations shared by several test modules."""

import pytest

from netlms.config import parse_config

MARKOV_PAIR = """
[experiment]
name = markov-pair
seed = 5
horizon = 60
runs = 3
record_every = 20

[model]
nodes = 2
dim = 2
node_dims = 1 1
x0 = 1 -1
init_1 = 0 0
init_2 = 2 1

[graph]
kind = markov-switching
states = 2
state_1 = 0 1 ; 1 0
state_2 = 0 0.5 ; 0 0
transition = 0.8 0.2 ; 0.3 0.7
initial_state = 0

[regression]
kind = entrywise-uniform
base_1 = 1 0
base_2 = 0 1
coef_1 = 0.5 0
coef_2 = 0 0.5

[gains]
a_coef = 0.5
a_exp = 0.6
b_coef = 0.5
b_exp = 0.6
"""


@pytest.fixture(scope="session")
def markov_pair():
    """Two nodes over a two-state Markov-switching graph."""
    return parse_config(MARKOV_PAIR)
