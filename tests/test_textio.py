"""One user-id rule for every text format: an id is non-empty, holds no
character that ``str.isspace`` matches, and is UTF-8.

``save_network`` writes exactly the ids the rule keeps, ``load_network``
reads each back equal, and a trace row is kept exactly when its stripped id
keeps it, whether a block is converted at once or read line by line.
"""

import sys
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linkrows import from_tuples
from spdt import _textio
from spdt.network import load_network, save_network
from spdt.trace import parse_trace

SPACES = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]
OTHERS = ["a", "Z", "0", "\x00", "\u00e9", "\u4e2d", "\U0001f600", "\u200b", "\ufeff"]
ID = st.text(st.one_of(st.sampled_from(SPACES), st.sampled_from(OTHERS),
                       st.characters(exclude_categories=("Cs",))), max_size=5)


def keeps_rule(user):
    return bool(user) and not any(ch.isspace() for ch in user)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("block", [1, 3, _textio.BLOCK_LINES])
@given(user=ID)
@example(user="")
@example(user=" a")
@example(user="a\t")
@example(user="a b")
@example(user="\x00")
@example(user="\u3000")
@example(user="\u00e9t\u00e9")
def test_one_id_rule(tmp_path_factory, block, user):
    d = tmp_path_factory.mktemp("ids")
    net = from_tuples([(user, "b", 0, 10, 5, 8, 0), ("b", user, 0, 10, 5, 8, 0),
                       ("a", "b", 0, 10, 5, 8, 0)], 1) if user not in ("a", "b") else None
    with mock.patch.object(_textio, "BLOCK_LINES", block):
        if net is not None:
            saved = outcome(save_network, net, d / "net.spdt")
            assert (saved[0] == "ok") == keeps_rule(user)
            if saved[0] == "ok":
                lines = (d / "net.spdt").read_bytes().decode("utf-8").split("\n")
                assert {user, "a", "b"} == {
                    field for line in lines[1:-1] for field in line.split(" ")[1:3]}
                assert load_network(d / "net.spdt") == net
            else:
                assert saved[1] == (f"user id {user!r} not representable "
                                    "in network format")

        if not any(ch in user for ch in ",\r\n"):  # a row's own line and field
            path = d / "trace.csv"
            path.write_bytes(f"user_id,t_min,x_m,y_m\na,0,0,0\n{user},1,2,3\n"
                             "b,2,0,0\n".encode())
            parsed = parse_trace(path)
            kept = keeps_rule(user.strip())
            assert len(parsed.updates) == 2 + kept
            if kept:
                assert user.strip() in parsed.updates.users
