"""One user-id rule for every text format: an id is non-empty, holds no
character that ``str.isspace`` matches, and is UTF-8.

``save_network`` writes exactly the ids the rule keeps, ``load_network``
reads each back equal, and a trace row is kept exactly when its stripped id
keeps it, whether a block is converted at once or read line by line.

``write_blocks`` writes the lines that joining ``str`` of each field writes,
for int64 and id columns, whatever the block size.
"""

import io
import sys
from unittest import mock

import pytest
import numpy as np
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


INT64_EDGES = [-2**63, -2**63 + 1, -10**18, -10, -9, -1, 0, 1, 9, 10, 10**18, 2**63 - 1]
INT64 = st.one_of(st.sampled_from(INT64_EDGES), st.integers(-1000, 1000),
                  st.integers(-2**63, 2**63 - 1))
WORD = st.text(st.sampled_from(OTHERS[:3] + OTHERS[4:]), min_size=1, max_size=10)


@st.composite
def text_rows(draw):
    """Rows of int64 fields and codes of ids, and the ids."""
    users = draw(st.lists(WORD, min_size=1, max_size=6, unique=True))
    kinds = draw(st.lists(st.sampled_from(["int", "id"]), min_size=1, max_size=5))
    field = {"int": INT64, "id": st.integers(0, len(users) - 1)}
    rows = draw(st.lists(st.tuples(*(field[kind] for kind in kinds)), max_size=20))
    return users, kinds, rows


def written(users, kinds, rows, sep):
    formats = {"int": _textio.int_text, "id": _textio.id_text(users)}
    columns = np.array(rows, dtype=np.int64).reshape(-1, len(kinds)).T
    fh = io.BytesIO()
    _textio.write_blocks(fh, columns, [formats[kind] for kind in kinds], sep)
    return fh.getvalue()


@pytest.mark.parametrize("block", [1, 3, _textio.BLOCK_LINES])
@given(case=text_rows(), sep=st.sampled_from([" ", ","]))
@example(case=(["a"], ["int"] * 3, [(-2**63, 0, 2**63 - 1), (0, -1, 1)]), sep=" ")
@example(case=(["a", "\u00e9t\u00e9", "user_0123456789"], ["id", "int", "id"],
               [(0, -5, 1), (2, 10**17, 0), (1, 0, 2)]), sep=",")
def test_write_blocks_matches_str_join(block, case, sep):
    users, kinds, rows = case
    with mock.patch.object(_textio, "BLOCK_LINES", block):
        got = written(users, kinds, rows, sep)
    want = "".join(sep.join(users[v] if kind == "id" else str(v)
                            for kind, v in zip(kinds, row)) + "\n" for row in rows)
    assert got == want.encode("utf-8")
