"""Differential suite: the indexed, streaming read path vs a full-scan oracle.

The oracle below shares no code with ``repro.metadata``'s read path — it
evaluates a query tree by ``isinstance`` dispatch over every record and
sorts by dataset id.  Random stores (mixed-type, missing, NaN and
unhashable field values; tags added and removed; ids arriving out of
order; indexes built before or after population, or never) are queried
with random ``Q`` trees and limits, in memory and after a durable store's
``crash()`` + ``recover()``.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableMetadataStore
from repro.metadata import MetadataStore, Q, Schema
from repro.metadata.query import (
    And,
    FieldCmp,
    HasStep,
    MatchAll,
    Not,
    Or,
    ProjectIs,
    TagIs,
)

_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_TOP_LEVEL = ("dataset_id", "project", "url", "size", "checksum", "created")


def _holds(q, record) -> bool:
    if isinstance(q, And):
        return all(_holds(p, record) for p in q.parts)
    if isinstance(q, Or):
        return any(_holds(p, record) for p in q.parts)
    if isinstance(q, Not):
        return not _holds(q.inner, record)
    if isinstance(q, FieldCmp):
        actual = (getattr(record, q.name) if q.name in _TOP_LEVEL
                  else record.basic.get(q.name))
        if actual is None:
            return False
        try:
            return bool(_OPS[q.op](actual, q.value))
        except TypeError:
            return False
    if isinstance(q, TagIs):
        return q.tag in record.tags
    if isinstance(q, ProjectIs):
        return record.project == q.project
    if isinstance(q, HasStep):
        return any(s.name == q.name and s.status == "success"
                   for s in record.processing)
    assert isinstance(q, MatchAll)
    return True


def oracle(store, q) -> list[str]:
    """Ids of every record satisfying ``q``, by full scan, in id order."""
    return sorted(r.dataset_id for r in store.datasets() if _holds(q, r))


# -- strategies ----------------------------------------------------------------

FIELDS = ("a", "b", "size")  # "size" is a top-level attribute, not basic
numbers = st.one_of(st.integers(-1, 3), st.sampled_from([0.5, 2.0, True]))
strings = st.sampled_from(["", "m", "z"])
oddities = st.sampled_from([float("nan"), [1, 2], [], {"k": 1}])
values = st.one_of(st.none(), numbers, strings, oddities)
#: What one field holds across a store: an index keeps answering range
#: terms only while the stored values stay mutually comparable.
field_values = st.sampled_from([
    st.one_of(st.none(), numbers),
    st.one_of(st.none(), strings),
    st.one_of(numbers, st.sampled_from([None, float("nan")])),
    values,
])


def _records(a_values, b_values):
    return st.lists(
        st.fixed_dictionaries({
            "n": st.integers(0, 40),
            "project": st.sampled_from(["p", "q"]),
            "size": st.integers(0, 4),
            "a": a_values,
            "b": b_values,
            "tags": st.sets(st.sampled_from(["x", "y"])),
            "step": st.sampled_from([None, "success", "failed"]),
        }),
        max_size=25,
        unique_by=lambda r: r["n"],  # list order = arrival order, ids unordered
    )


records = st.tuples(field_values, field_values).flatmap(lambda fv: _records(*fv))
index_when = st.fixed_dictionaries(
    {name: st.sampled_from(["before", "after", "never"]) for name in FIELDS})
tag_ops = st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(["x", "y"]), st.booleans()),
    max_size=15)

leaves = st.one_of(
    st.builds(FieldCmp,
              st.sampled_from(FIELDS + ("dataset_id", "absent")),
              st.sampled_from(sorted(_OPS)),
              st.one_of(values, st.sampled_from(["d007", "d020"]))),
    st.builds(TagIs, st.sampled_from(["x", "y", "never"])),
    st.builds(ProjectIs, st.sampled_from(["p", "q", "nobody"])),
    st.builds(HasStep, st.sampled_from(["seg", "ghost"])),
    st.just(Q.all()),
)
queries = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda parts: And(*parts)),
        st.lists(inner, max_size=3).map(lambda parts: Or(*parts)),
        inner.map(Not),
    ),
    max_leaves=8,
)
limits = st.one_of(st.none(), st.integers(0, 6))

#: Every store is also asked a fixed battery, so bisect boundaries and
#: overlapping posting lists are probed on each one rather than by luck:
#: every field x operator x probe, and And/Or over pairs of indexable terms.
_PROBES = (-1, 0, 1, 2, 3, 0.5, 2.0, True, "", "m", "z", "d007",
           float("nan"), [1, 2], {"k": 1})
_TERMS = (Q.tag("x"), Q.tag("y"), Q.project("p"), Q.field("a") == 1,
          Q.field("a") >= 1, Q.field("b") < "m", Q.field("b") == 2.0,
          Q.field("size") <= 2)
BATTERY = [
    FieldCmp(name, op, probe)
    for name in FIELDS + ("dataset_id", "absent")
    for op in sorted(_OPS) for probe in _PROBES
] + [
    combine(left, right)
    for i, left in enumerate(_TERMS) for right in _TERMS[i + 1:]
    for combine in (And, Or, lambda l, r: And(Or(l, r), Not(l)))
]


def _populate(store, recs, when, ops):
    schema = Schema("free", [], allow_extra=True)
    store.register_project("p", schema)
    store.register_project("q", schema)
    for name in FIELDS:
        if when[name] == "before":
            store.index_field(name)
    for rec in recs:
        dataset_id = f"d{rec['n']:03d}"
        basic = {k: rec[k] for k in ("a", "b") if rec[k] is not None}
        store.register_dataset(
            dataset_id, rec["project"], f"adal://x/{dataset_id}", rec["size"],
            "c", basic, tags=rec["tags"])
        if rec["step"] is not None:
            store.add_processing(dataset_id, "seg", {}, {}, 0.0, 1.0,
                                 status=rec["step"])
    for name in FIELDS:
        if when[name] == "after":
            store.index_field(name)
    for n, tag, add in ops:
        dataset_id = f"d{n:03d}"
        if store.exists(dataset_id):
            (store.tag if add else store.untag)(dataset_id, tag)


def _check(store, qs, limit):
    for q in qs:
        expected = oracle(store, q)
        assert [r.dataset_id for r in store.query(q)] == expected, q
        assert [r.dataset_id for r in store.query(q, limit=limit)] == (
            expected if limit is None else expected[:limit]), q
        assert store.count(q) == len(expected), q
    for tag in ("x", "y"):
        assert [r.dataset_id for r in store.tagged(tag)] == oracle(store, Q.tag(tag))


@given(recs=records, when=index_when, ops=tag_ops,
       qs=st.lists(queries, max_size=10), limit=limits)
@settings(max_examples=200, deadline=None)
def test_query_equals_scan_oracle(recs, when, ops, qs, limit):
    store = MetadataStore()
    _populate(store, recs, when, ops)
    _check(store, BATTERY + qs, limit)


@given(recs=records, when=index_when, ops=tag_ops,
       qs=st.lists(queries, max_size=10), limit=limits,
       snapshot_every=st.sampled_from([None, 1, 7]))
@settings(max_examples=60, deadline=None)
def test_query_equals_scan_oracle_after_crash_recovery(
        recs, when, ops, qs, limit, snapshot_every):
    store = DurableMetadataStore(snapshot_every=snapshot_every)
    _populate(store, recs, when, ops)
    before = [oracle(store, q) for q in BATTERY + qs]
    store.crash()
    store.recover()
    assert [oracle(store, q) for q in BATTERY + qs] == before
    _check(store, BATTERY + qs, limit)


def test_save_load_round_trip_answers_like_the_scan(tmp_path):
    store = MetadataStore()
    recs = [{"n": n, "project": "pq"[n % 2], "size": n % 3, "a": n % 4,
             "b": ["m", 2, None][n % 3], "tags": {"x"} if n % 5 == 0 else set(),
             "step": None} for n in (9, 3, 7, 1, 8, 2)]
    _populate(store, recs, {"a": "before", "b": "after", "size": "never"}, [])
    path = tmp_path / "md.jsonl"
    store.save(path)
    loaded = MetadataStore.load(path)
    assert [oracle(loaded, q) for q in BATTERY] == [oracle(store, q) for q in BATTERY]
    _check(loaded, BATTERY, 2)
