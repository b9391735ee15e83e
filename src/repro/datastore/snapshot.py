"""Persistent snapshots of sampling state: codec + pluggable backends.

The paper's central artifact — the rewired overlay G* (§I-C) — is built
from *expensive* interface queries, and §II-B's cost model makes every
unique query the scarce resource: "we consider the number of unique
queries one has to issue for the sampling process, as any duplicate query
can be answered from local cache without consuming the query limit."  A
snapshot extends that local cache across process boundaries: everything a
crawl has already paid for (overlay rewirings, cached neighborhoods, the
query log, walker RNG state) is serialized so a later process resumes
bit-for-bit — same draws, same billing — instead of re-paying the budget.

Three layers live here:

* **Codec** — :func:`encode_value` / :func:`decode_value` map the sampler's
  state (arbitrary hashable user ids: ints, strings, tuples; frozensets;
  insertion-ordered dicts; exact floats) onto JSON-safe structures and
  back, type-faithfully.  A tagged representation avoids JSON's ambiguity
  (``1`` vs ``True`` vs ``1.0``; tuple vs list; no non-string dict keys).
  Since version 3 a ``list`` run — at least ``_RUN_MIN`` members, all one
  scalar type, all plain tuples of one width, or all one extension type —
  is one column block, ``["L", block]``: a query log, a trace or the
  merged samples are written field by field, one JSON array per field,
  and read back with ``zip``.  Those append-only lists are what a crawl
  keeps growing and re-reads whole (the hibernation spills splice a
  run's new tail onto its stored columns).  Tuples, sets and dict keys
  keep the per-member encoding: they are the user ids and keys whose
  canonical text shard routing, latency streams and set order hash, so
  their bytes must not move.
* **Backends** — :class:`SnapshotBackend` is the pluggable persistence
  API; :class:`JsonLinesBackend` writes one atomic JSON-lines file (one
  header line + one line per state section), :class:`KeyValueBackend`
  stores sections in a :class:`~repro.datastore.kv.KeyValueStore` (the
  Redis stand-in), where several *named* snapshots can coexist under
  distinct namespaces.  The store must be a dedicated one, not the store
  backing a live :class:`~repro.interface.cache.NeighborhoodCache` — a
  snapshot of a cache whose store also held snapshots would recursively
  embed them.
* **Payload shape** — a snapshot is a flat ``{section name: state dict}``
  mapping.  Sections are produced by the ``state_dict()`` methods of the
  stateful classes (overlay, cache, query log, walkers, scheduler — the
  latter carrying the planning layer's prefetch ledger and chain roster
  when a dispatch planner is attached) and restored by their
  ``load_state()`` counterparts; this module never reaches into their
  internals.
"""

from __future__ import annotations

import abc
import itertools
import json
import os
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.datastore.kv import KeyValueStore
from repro.errors import SnapshotError

#: Format marker written into every snapshot header.
SNAPSHOT_FORMAT = "repro-snapshot"

#: Version of the on-disk layout; bumped on incompatible changes.  Version
#: 2: the neighborhood cache holds one ``("resp", user)`` record per user.
#: Version 3: list runs are written as column blocks (``["L", block]``).
SNAPSHOT_VERSION = 3

#: Layouts this build decodes: version 2 is version 3 without column blocks.
_READABLE_VERSIONS = (2, 3)


def _check_version(version: object, source: str) -> None:
    """Raise unless ``version`` is one this build reads."""
    if version not in _READABLE_VERSIONS:
        readable = " or ".join(map(str, _READABLE_VERSIONS))
        raise SnapshotError(f"{source} has version {version!r}; this build reads version {readable}")


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def _canonical(encoded: object) -> str:
    """Deterministic sort key for encoded set members."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def canonical_key(user: object) -> str:
    """Process-stable text of a snapshotable id: its canonical encoding.

    Python's ``hash`` is salted per process for strings, so anything that
    must map a user id to the same value on every run and machine (shard
    routing, per-user latency streams) hashes this text instead.  A plain
    ``int`` skips the codec; ``bool`` and every other type take it.
    """
    if type(user) is int:
        return f'["i",{user}]'
    return _canonical(encode_value(user))


#: Registered extension codecs: exact type -> (tag, to-primitives function).
_EXTENSION_ENCODERS: Dict[type, Tuple[str, Callable[[object], object]]] = {}
#: Registered extension codecs: tag -> from-primitives function.
_EXTENSION_DECODERS: Dict[str, Callable[[object], object]] = {}


def register_codec(
    tag: str,
    cls: type,
    encode: Callable[[object], object],
    decode: Callable[[object], object],
    override: bool = False,
) -> None:
    """Register an extension codec for an application type.

    The base codec only knows primitives and containers; subsystems that
    snapshot richer objects (e.g. collected :class:`WalkSample` records in
    an event-driven scheduler's in-flight state) register a codec pair
    here.  ``encode`` must reduce an instance to values the base codec
    already supports; ``decode`` inverts it.  Registration is idempotent
    for an identical (tag, cls) pair, so repeated module imports are safe;
    any other duplicate is rejected — two subsystems silently fighting
    over one tag would corrupt every snapshot that crosses them.

    Args:
        tag: Snapshot tag; must start with ``"x:"`` to stay clear of the
            base codec's single-character tags.
        cls: Exact type to encode (subclasses are not matched — a snapshot
            must never silently widen a type).
        encode: Instance -> base-codec-supported value.
        decode: Inverse of ``encode``.
        override: Replace an existing registration for the same (tag, cls)
            pair instead of rejecting the conflict — a hook for tests that
            stub codecs; production registrations must never need it.

    Raises:
        SnapshotError: On malformed tags, or a duplicate tag/type
            registration without ``override``.
    """
    if not tag.startswith("x:"):
        raise SnapshotError(f"extension codec tag {tag!r} must start with 'x:'")
    existing = _EXTENSION_ENCODERS.get(cls)
    if existing is not None and existing[0] != tag:
        raise SnapshotError(
            f"type {cls.__name__} is already registered under extension codec tag "
            f"{existing[0]!r}; unregister it before rebinding to {tag!r}"
        )
    if tag in _EXTENSION_DECODERS and existing is None:
        raise SnapshotError(
            f"extension codec tag {tag!r} is already registered to another type; "
            "pick a distinct tag (or unregister_codec() the old one first)"
        )
    if existing is not None and not override:
        # Same (tag, cls): keep the first registration so repeated module
        # imports stay no-ops; an explicit override is the test hook.
        return
    _EXTENSION_ENCODERS[cls] = (tag, encode)
    _EXTENSION_DECODERS[tag] = decode


def unregister_codec(tag: str) -> bool:
    """Remove an extension codec by tag; returns whether one was removed.

    A test that registered a throwaway codec (or overrode a real one)
    uses this to restore the global registry; decoding a payload written
    under a tag after its codec is gone raises :class:`SnapshotError`
    (the unknown-tag failure), which is exactly the safety the tagged
    format is for.
    """
    if tag not in _EXTENSION_DECODERS:
        return False
    del _EXTENSION_DECODERS[tag]
    for cls, (registered_tag, _encode) in list(_EXTENSION_ENCODERS.items()):
        if registered_tag == tag:
            del _EXTENSION_ENCODERS[cls]
    return True


def codec_registered(tag: str) -> bool:
    """Whether an extension codec is currently registered under ``tag``."""
    return tag in _EXTENSION_DECODERS


def encode_value(value: object) -> object:
    """Encode ``value`` into a JSON-safe tagged structure.

    Supported types: ``None``, ``bool``, ``int``, ``float`` (exact, via
    hex — infinities and NaN included), ``str``, ``bytes``, ``tuple``,
    ``list``, ``set``/``frozenset`` (canonically ordered so identical sets
    serialize to identical bytes regardless of insertion/hash order), and
    ``dict`` with arbitrary hashable keys (insertion order preserved).

    Values of exactly these types dispatch on ``type(value)`` in one dict
    lookup; subclasses and registered extension types take the
    ``isinstance`` chain in :func:`_encode_fallback`.  Both routes produce
    the same encoding.

    Raises:
        SnapshotError: For unsupported types.
    """
    return _ENCODERS.get(type(value), _encode_fallback)(value)


#: Sequences shorter than this are coded member by member: checking
#: whether they are a run of one type costs more than it saves.
_RUN_MIN = 8


def _encode_items(values) -> list:
    """Encode a sequence's members; a run of one type in bulk.

    Tuples and sets keep this per-member form at any length (a list run
    is a column block instead, see :func:`_encode_list`), and user-id
    sets are int runs: one pass building the tagged values inline beats
    a dispatch per member.  Every path yields exactly what encoding each
    member on its own yields.
    """
    if len(values) >= _RUN_MIN:
        kinds = set(map(type, values))
        if len(kinds) == 1:
            kind = kinds.pop()
            run = _RUN_ENCODERS.get(kind)
            if run is not None:
                return run(values)
            # The per-member route for a type outside _ENCODERS is
            # _encode_fallback, which takes the extension codec only for
            # a type that subclasses no base type.
            extension = _EXTENSION_ENCODERS.get(kind)
            if extension is not None and kind not in _ENCODERS and not issubclass(kind, _BASE_TYPES):
                tag, to_primitives = extension
                return [[tag, item] for item in _encode_items(list(map(to_primitives, values)))]
    return [encode_value(v) for v in values]


def _encode_rows(rows) -> list:
    """Encode a run of plain tuples column by column.

    Each column is a run in its own right (a log's users, flags and
    timestamps), so it takes the bulk paths too; rows of unequal width
    are coded one by one.
    """
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return [["t", _encode_items(row)] for row in rows]
    columns = [_encode_items(column) for column in zip(*rows)]
    return [["t", list(row)] for row in zip(*columns)]


def _encode_list(values) -> list:
    """Encode a list: a run as one column block, anything else member by member."""
    block = _column(values) if len(values) >= _RUN_MIN else None
    if block is not None:
        return ["L", block]
    return ["l", _encode_items(values)]


def _column(values) -> Optional[list]:
    """The column block of a run of one kind, or ``None`` for any other sequence.

    A block is ``[kind, data]``.  Scalar kinds hold their payloads in one
    array: ``"i"``, ``"b"`` and ``"s"`` the values, ``"f"`` their hex
    text.  Plain tuples of one width are ``["t", [column block, ...]]``,
    one block per field; one extension type is ``[tag, block]`` over its
    primitives.  A field whose values are no run of their own (mixed
    types, ``None``, containers) is ``["e", [member, ...]]``, each member
    encoded on its own.
    """
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    scalar = _SCALAR_COLUMNS.get(kind)
    if scalar is not None:
        return scalar(values)
    if kind is tuple:
        widths = set(map(len, values))
        if len(widths) != 1 or 0 in widths:
            return None
        return ["t", [_field(column) for column in zip(*values)]]
    # As in _encode_items: a registered type that subclasses a base type
    # encodes as that base type, so only the others take their codec.
    extension = _EXTENSION_ENCODERS.get(kind)
    if extension is not None and kind not in _ENCODERS and not issubclass(kind, _BASE_TYPES):
        tag, to_primitives = extension
        return [tag, _field(list(map(to_primitives, values)))]
    return None


def _field(values) -> list:
    """The column block of one field: a run's block, else its members one by one."""
    return _column(values) or ["e", _encode_items(values)]


#: Exact scalar type -> its column block.
_SCALAR_COLUMNS: Dict[type, Callable[[object], list]] = {
    int: lambda values: ["i", list(values)],
    bool: lambda values: ["b", list(values)],
    float: lambda values: ["f", list(map(float.hex, values))],
    str: lambda values: ["s", list(values)],
}


def _block_shape(block: list) -> object:
    """A block's kinds without its data: blocks of one shape join into one."""
    kind, data = block
    if kind == "t":
        return ("t", tuple(map(_block_shape, data)))
    if kind.startswith("x:"):
        return (kind, _block_shape(data))
    return kind


def _block_len(block: list) -> int:
    """The number of values a block holds."""
    kind, data = block
    while kind == "t" or kind.startswith("x:"):
        kind, data = data[0] if kind == "t" else data
    return len(data)


def _join(blocks: list) -> list:
    """One block holding the values of ``blocks`` (all of one shape) in order.

    The blocks are never edited: a lone block is returned as it is, and
    joining several builds new arrays.
    """
    if len(blocks) == 1:
        return blocks[0]
    kind = blocks[0][0]
    if kind == "t":
        return ["t", [_join(list(field)) for field in zip(*(block[1] for block in blocks))]]
    if kind.startswith("x:"):
        return [kind, _join([block[1] for block in blocks])]
    return [kind, list(itertools.chain.from_iterable(block[1] for block in blocks))]


def encode_run(run: list, blocks: Sequence[list] = ()) -> Tuple[list, list]:
    """``encode_value(run)`` for a list that may extend one encoded before.

    ``blocks`` are the column blocks a previous call returned for a list
    that ``run`` starts with.  When ``run`` is longer, only its tail is
    encoded, and a tail block of their shape is joined onto them; a tail
    of another shape (a new type in a field, a row of another width), a
    shorter ``run`` or a ``run`` that is no list is encoded whole.

    Returns:
        ``(encoding, blocks)``: the encoding equals ``encode_value(run)``,
        and ``blocks`` lists the column blocks it joins, oldest first
        (empty when ``run`` takes the per-member form).  The given blocks
        are reused, never edited.
    """
    if blocks and type(run) is list:
        size = sum(map(_block_len, blocks))
        if len(run) == size:
            return ["L", _join(list(blocks))], list(blocks)
        if len(run) > size:
            tail = _column(run[size:])
            if tail is not None and _block_shape(tail) == _block_shape(blocks[0]):
                blocks = [*blocks, tail]
                return ["L", _join(blocks)], blocks
    encoded = encode_value(run)
    return encoded, [encoded[1]] if encoded[0] == "L" else []


def _encode_members(values) -> list:
    """Encode a set's members in canonical order."""
    return sorted(_encode_items(values), key=_canonical)


#: Exact member type -> encoder of a whole run of that type.
_RUN_ENCODERS: Dict[type, Callable[[object], list]] = {
    int: lambda values: [["i", v] for v in values],
    bool: lambda values: [["b", v] for v in values],
    float: lambda values: [["f", v.hex()] for v in values],
    str: lambda values: [["s", v] for v in values],
    tuple: _encode_rows,
}

#: Exact type -> encoder for the base types (the dispatch fast path).
_ENCODERS: Dict[type, Callable[[object], object]] = {
    type(None): lambda v: ["z"],
    bool: lambda v: ["b", v],
    int: lambda v: ["i", v],
    float: lambda v: ["f", v.hex()],
    str: lambda v: ["s", v],
    bytes: lambda v: ["y", v.hex()],
    tuple: lambda v: ["t", _encode_items(v)],
    list: _encode_list,
    set: lambda v: ["S", _encode_members(v)],
    frozenset: lambda v: ["F", _encode_members(v)],
    dict: lambda v: ["d", [[encode_value(k), encode_value(x)] for k, x in v.items()]],
}

#: Every type the base codec handles, subclasses included.
_BASE_TYPES = (int, float, str, bytes, tuple, list, set, frozenset, dict)


def _encode_fallback(value: object) -> object:
    """Encode a registered extension type, or a subclass of a base type."""
    extension = _EXTENSION_ENCODERS.get(type(value))
    # A registered type that subclasses a base type (a namedtuple, say)
    # encodes as that base type: the chain below takes precedence.
    if extension is not None and not isinstance(value, _BASE_TYPES):
        tag, to_primitives = extension
        return [tag, encode_value(to_primitives(value))]
    if isinstance(value, bool):
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value.hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, bytes):
        return ["y", value.hex()]
    if isinstance(value, tuple):
        return ["t", _encode_items(value)]
    if isinstance(value, list):
        return _encode_list(value)
    if isinstance(value, (set, frozenset)):
        return ["S" if isinstance(value, set) else "F", _encode_members(value)]
    if isinstance(value, dict):
        return ["d", [[encode_value(k), encode_value(v)] for k, v in value.items()]]
    raise SnapshotError(f"cannot snapshot value of type {type(value).__name__}: {value!r}")


def decode_value(encoded: object) -> object:
    """Invert :func:`encode_value`.

    Dispatches on the tag in one dict lookup: scalar tags, then ``None``
    and the containers, then registered extension tags.

    Raises:
        SnapshotError: On malformed input.
    """
    if not isinstance(encoded, list) or not encoded:
        raise SnapshotError(f"malformed snapshot value: {encoded!r}")
    tag = encoded[0]
    if isinstance(tag, str):
        convert = _SCALAR_DECODERS.get(tag)
        if convert is not None:
            return convert(encoded[1])
        decoder = _TAGGED_DECODERS.get(tag)
        if decoder is not None:
            return decoder(encoded)
        extension = _EXTENSION_DECODERS.get(tag)
        if extension is not None:
            return extension(decode_value(encoded[1]))
    raise SnapshotError(f"unknown snapshot tag {tag!r}")


#: Scalar tag -> converter of the tagged payload.
_SCALAR_DECODERS: Dict[str, Callable[[object], object]] = {
    "b": bool,
    "i": int,
    "f": float.fromhex,
    "s": str,
    "y": bytes.fromhex,
}

_LIST_ONLY = {list}


def _decode_items(items) -> list:
    """Decode a sequence's members; scalar members and same-tag runs in bulk.

    A sequence whose members are all ``[scalar tag, payload]`` pairs — a
    user-id set, a log record, a sample's fields — converts each payload
    in one comprehension, and a plain ``int`` payload is already its
    value.  A run of tuples, or of one extension tag (a version-2 query
    log or merged sample list, a recorder's events), is decoded by
    :func:`_decode_run`.
    Anything else (mixed containers, or malformed input) is decoded one
    member at a time, which also raises what a malformed member raises
    there.
    """
    if set(map(type, items)) == _LIST_ONLY:
        try:
            return [
                payload if tag == "i" and type(payload) is int else _SCALAR_DECODERS[tag](payload)
                for tag, payload in items
            ]
        except (KeyError, TypeError, ValueError):
            pass
        if len(items) >= _RUN_MIN:
            run = _decode_run(items)
            if run is not None:
                return run
    return [decode_value(v) for v in items]


def _decode_run(items) -> Optional[list]:
    """Decode a run of ``["t", ...]`` or same-extension-tag values, else ``None``.

    A tuple run is decoded column by column, each column in bulk, and
    ``zip`` rebuilds the rows as tuples; an extension run decodes its
    payloads as one run and converts each.  ``None`` (mixed tags, rows
    of unequal width, a malformed member) leaves the members to
    :func:`decode_value`.
    """
    try:
        tags = {item[0] for item in items}
        payloads = [item[1] for item in items]
    except (IndexError, TypeError):
        return None
    if len(tags) != 1:
        return None
    tag = tags.pop()
    if tag == "t":
        if set(map(type, payloads)) != _LIST_ONLY:
            return None
        widths = set(map(len, payloads))
        if len(widths) != 1 or 0 in widths:
            return None
        return list(zip(*[_decode_items(column) for column in zip(*payloads)]))
    extension = _EXTENSION_DECODERS.get(tag)
    if extension is None:
        return None
    return list(map(extension, _decode_items(payloads)))


#: Column kind -> the one type its payloads must have.
_COLUMN_TYPES = {"i": int, "b": bool, "s": str}


def _decode_block(block: object) -> list:
    """Invert :func:`_column`: the values a column block holds, in a new list.

    Raises:
        SnapshotError: On a malformed block: no ``[kind, array]`` pair,
            a payload of the wrong type, fields of unequal length, or an
            unknown kind or extension tag.
    """
    if type(block) is not list or len(block) != 2 or type(block[1]) is not list:
        raise SnapshotError(f"malformed column block: {block!r}")
    kind, data = block
    exact = _COLUMN_TYPES.get(kind) if isinstance(kind, str) else None
    if exact is not None:
        if set(map(type, data)) - {exact}:
            raise SnapshotError(f"column block {kind!r} holds a value of another type: {data!r}")
        return data[:]
    if kind == "f":
        try:
            return list(map(float.fromhex, data))
        except (TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed float column: {data!r}") from exc
    if kind == "e":
        return _decode_items(data)
    if kind == "t":
        fields = [_decode_block(field) for field in data]
        if not fields or len(set(map(len, fields))) != 1:
            raise SnapshotError(f"ragged or empty row block: {block!r}")
        return list(zip(*fields))
    extension = _EXTENSION_DECODERS.get(kind) if isinstance(kind, str) else None
    if extension is None:
        raise SnapshotError(f"unknown column block kind {kind!r}")
    return list(map(extension, _decode_block(data)))


#: Tag -> decoder of the whole tagged value (``None`` and the containers).
_TAGGED_DECODERS: Dict[str, Callable[[list], object]] = {
    "z": lambda e: None,
    "t": lambda e: tuple(_decode_items(e[1])),
    "l": lambda e: _decode_items(e[1]),
    "L": lambda e: _decode_block(e[1] if len(e) == 2 else None),
    "S": lambda e: set(_decode_items(e[1])),
    "F": lambda e: frozenset(_decode_items(e[1])),
    "d": lambda e: {decode_value(k): decode_value(v) for k, v in e[1]},
}


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class SnapshotBackend(abc.ABC):
    """Pluggable persistence for snapshot payloads.

    A payload is ``{section name: state dict}``; backends store the
    codec-encoded form, so a written snapshot is isolated from later
    mutation of the live objects it was captured from.
    """

    @abc.abstractmethod
    def write(self, sections: Dict[str, object]) -> None:
        """Persist a payload, replacing any previous snapshot."""

    @abc.abstractmethod
    def read(self) -> Optional[Dict[str, object]]:
        """Load the stored payload, or ``None`` when no snapshot exists.

        Raises:
            SnapshotError: If a snapshot exists but cannot be decoded.
        """

    def exists(self) -> bool:
        """Whether a snapshot is currently stored."""
        return self.read() is not None


class JsonLinesBackend(SnapshotBackend):
    """One snapshot as an atomic JSON-lines file.

    Line 1 is a header (format marker, version, section names); each
    further line is one section: ``{"section": name, "data": <encoded>}``.
    Writes go to a sibling temp file and are published with
    :func:`os.replace`, so a crash mid-checkpoint never corrupts the
    previous snapshot.

    Args:
        path: Snapshot file location.
    """

    def __init__(self, path: "str | os.PathLike") -> None:
        self._path = os.fspath(path)

    @property
    def path(self) -> str:
        """The snapshot file path."""
        return self._path

    def write(self, sections: Dict[str, object]) -> None:
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "sections": list(sections),
        }
        tmp = self._path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, state in sections.items():
                line = {"section": name, "data": encode_value(state)}
                fh.write(json.dumps(line, sort_keys=True) + "\n")
        os.replace(tmp, self._path)

    def read(self) -> Optional[Dict[str, object]]:
        if not os.path.exists(self._path):
            return None
        try:
            with open(self._path) as fh:
                lines = [line for line in fh.read().splitlines() if line.strip()]
        except OSError as exc:  # pragma: no cover - filesystem failure
            raise SnapshotError(f"cannot read snapshot {self._path}: {exc}") from exc
        if not lines:
            raise SnapshotError(f"snapshot {self._path} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"snapshot {self._path} has a corrupt header") from exc
        if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(f"snapshot {self._path} is not a {SNAPSHOT_FORMAT} file")
        _check_version(header.get("version"), f"snapshot {self._path}")
        sections: Dict[str, object] = {}
        for raw in lines[1:]:
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"snapshot {self._path} has a corrupt section line") from exc
            if not isinstance(record, dict) or "section" not in record or "data" not in record:
                raise SnapshotError(f"snapshot {self._path} has a malformed section line")
            sections[record["section"]] = decode_value(record["data"])
        missing = [name for name in header.get("sections", []) if name not in sections]
        if missing:
            raise SnapshotError(f"snapshot {self._path} is truncated; missing sections {missing}")
        return sections

    def exists(self) -> bool:
        return os.path.exists(self._path)


class KeyValueBackend(SnapshotBackend):
    """Snapshots stored inside a :class:`~repro.datastore.kv.KeyValueStore`.

    Sections live under ``("snapshot", namespace, ...)`` keys, so several
    named snapshots can share one dedicated store (do not reuse the store
    backing a live cache — snapshotting that cache would then embed prior
    snapshots).  Payloads are codec-encoded on write and decoded on read —
    a stored snapshot never aliases live sampler state.

    Args:
        store: Backing store; a fresh unbounded one by default.  Note that
            a *capacity-bounded* store may evict snapshot sections under
            LRU pressure, exactly as Redis would.
        namespace: Name distinguishing this snapshot from others in the
            same store.
    """

    def __init__(self, store: Optional[KeyValueStore] = None, namespace: str = "default") -> None:
        self._store = store if store is not None else KeyValueStore()
        self._namespace = namespace

    @property
    def store(self) -> KeyValueStore:
        """The backing key-value store."""
        return self._store

    def _header_key(self) -> tuple:
        return ("snapshot", self._namespace, "header")

    def _section_key(self, name: str) -> tuple:
        return ("snapshot", self._namespace, "section", name)

    def write(self, sections: Dict[str, object]) -> None:
        # Encode everything *before* touching the store: a codec failure
        # on a later section must not leave a mixed old/new snapshot.
        encoded = {name: encode_value(state) for name, state in sections.items()}
        previous = self._store.get(self._header_key())
        header = {"version": SNAPSHOT_VERSION, "sections": tuple(sections)}
        for name, payload in encoded.items():
            self._store.set(self._section_key(name), payload)
        self._store.set(self._header_key(), header)
        # Drop sections a previous snapshot wrote that this one did not.
        if isinstance(previous, dict):
            for name in previous.get("sections", ()):
                if name not in sections:
                    self._store.delete(self._section_key(name))

    def read(self) -> Optional[Dict[str, object]]:
        header = self._store.get(self._header_key())
        if header is None:
            return None
        if not isinstance(header, dict):
            raise SnapshotError(f"snapshot namespace {self._namespace!r} has a corrupt header")
        _check_version(header.get("version"), f"snapshot namespace {self._namespace!r}")
        sections: Dict[str, object] = {}
        for name in header.get("sections", ()):
            encoded = self._store.get(self._section_key(name))
            if encoded is None:
                raise SnapshotError(
                    f"snapshot namespace {self._namespace!r} lost section {name!r} "
                    "(evicted or expired from the backing store)"
                )
            sections[name] = decode_value(encoded)
        return sections

    def exists(self) -> bool:
        return self._store.contains(self._header_key())
