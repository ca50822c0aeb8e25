import json

from hypothesis import example, given
from hypothesis import strategies as st

from telework_impact.diary import RejectedDay, RejectReason
from telework_impact.report import EncodedJson, encode_json, fmt, rejection_rows, write_json

#: Strings that stress the splice: newlines, quotes, escapes, non-ASCII.
_TEXT = st.text(st.sampled_from('a :,{}[]"\\\n\t\r/éß€\u2028\U0001f600')) | st.text()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def test_fmt_full_precision():
    assert fmt(0.1) == "0.1"
    assert fmt(1.0 / 3.0) == repr(1.0 / 3.0)
    assert float(fmt(23.969999999999995)) == 23.969999999999995
    assert fmt(5) == "5"
    assert fmt("office") == "office"


def test_write_json_is_canonical(tmp_path):
    a = write_json(tmp_path / "a.json", {"b": 1, "a": {"y": 0.25, "x": 2}})
    b = write_json(tmp_path / "b.json", {"a": {"x": 2, "y": 0.25}, "b": 1})
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["a"]["y"] == 0.25


def test_rejection_rows():
    rows = rejection_rows(
        [
            RejectedDay(
                reason=RejectReason.PARSE_ERROR, row=7, participant_id="P1", date="x"
            ),
            RejectedDay(reason=RejectReason.WORK_TOO_SHORT, participant_id="P2", date="2024-01-08"),
        ]
    )
    assert rows == [
        ["7", "P1", "x", "PARSE_ERROR"],
        ["", "P2", "2024-01-08", "WORK_TOO_SHORT"],
    ]


@given(payload=st.dictionaries(_TEXT, _JSON, max_size=5), key=_TEXT, member=_JSON)
@example(
    payload={"scenario": 'say "hi"\nZürich', "a": [{"b": "x\ny"}]},
    key="sweep",
    member={"points": [{"value": 1.5, "name": "\n  \"\n"}], "z": {}},
)
def test_encoded_member_splices_exactly(payload, key, member):
    expected = json.dumps({**payload, key: member}, indent=2, sort_keys=True)
    assert encode_json({**payload, key: EncodedJson(member)}) == expected
    assert encode_json(EncodedJson(member)) == json.dumps(member, indent=2, sort_keys=True)

