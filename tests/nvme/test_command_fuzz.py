"""A generated fuzzer for the NVMe command boundary, on both routes.

The host can send the command interpreter anything (paper §3.10), so
every command is drawn from the whole space a host can fill in: the
opcode from every enum member, the values that alias one (``True`` and
``1.0`` equal WRITE, ``2.0`` READ, ``192.0`` ADDR_QUERY, and READ and
GET_LOG_PAGE are both 2), ints 0–255, strings, ``None`` and unhashables;
the ``admin`` flag either way; each integer field valid, negative, huge,
a bool, a float or ``None``; a WRITE payload that fits or does not.

It runs down ``controller.submit`` and down ``submit_async`` next to a
READ sibling, and holds both routes to one contract: a command never
raises and always completes with a status the controller maps to; one
that does not succeed changes no host counter, no ``flash.*`` counter,
no mapping and no clock; the sibling still reads; and the two routes
answer every command the queued route takes alike.

The device is drawn too, in one of four conditions: as built; retention-
locked (a ``retention_key`` device never unlocked, so history is
refused); read-only, entered as the retention-floor alarm enters it —
host writes until a full device may recycle no history; and full, a
RegularSSD with every LBA written and then overwritten until an
overwrite completes ``CAPACITY_EXCEEDED`` (read-only since, with no
floor alarm involved).
"""

import copy
import functools

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.nvme import AdminOpcode, HostNVMeDriver, NVMeCommand, NVMeController, Opcode
from repro.nvme.commands import StatusCode
from repro.nvme.controller import _STATUS_BY_ERROR
from repro.timessd.config import ContentMode

from tests.conftest import make_regular_ssd, make_timessd, small_geometry

STATUSES = {StatusCode.SUCCESS} | {status for _error, status in _STATUS_BY_ERROR}
QUEUED = {Opcode.READ, Opcode.WRITE, Opcode.DSM, Opcode.FLUSH}
SIBLING = NVMeCommand(Opcode.READ, slba=0, nlb=3)
PAGE_SIZE = small_geometry().page_size
FUZZ = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Where an opcode comes from; a kind listed n times is drawn about n
#: times as often, so valid commands are common.
OPCODES = {
    "member": st.sampled_from(list(Opcode) + list(AdminOpcode)),
    "alias": st.sampled_from([True, False, 1.0, 2.0, 6.0, 192.0]),
    "int": st.integers(min_value=0, max_value=255),
    "junk": st.one_of(st.text(max_size=3), st.none(), st.sampled_from([[1], {}, {2}])),
}
OPCODE_KINDS = ["member", "member", "member", "alias", "int", "junk"]
#: A valid value of each integer field on this device.
VALID = {
    "slba": st.integers(min_value=0, max_value=4),
    "nlb": st.integers(min_value=1, max_value=4),
    "t": st.integers(min_value=0, max_value=3000),
    "t2": st.integers(min_value=0, max_value=3000),
    "threads": st.integers(min_value=1, max_value=4),
}
HOSTILE = st.one_of(
    st.integers(max_value=0),
    st.sampled_from([2**64, 10**30]),
    st.booleans(),
    st.floats(),
    st.none(),
)


KEY = b"correct horse battery staple"
#: Each device condition's configuration.  The read-only device is small, so
#: the writes that fill it cost a few milliseconds per example.
CONDITIONS = {
    "as built": {},
    "locked": {"retention_key": KEY},
    "read-only": {
        "geometry": small_geometry(blocks_per_plane=4),
        "retention_floor_us": 10**15,
    },
    "full": None,  # a RegularSSD; see full_device
}


def full_device():
    """A copy of :func:`filled_device`: a deep copy takes a fifth of the
    fill's time, and every example gets a device of its own."""
    return copy.deepcopy(filled_device())


@functools.cache
def filled_device():
    """``TestFullDevice``'s recipe: every LBA of a RegularSSD written,
    then overwritten until an overwrite completes ``CAPACITY_EXCEEDED``.
    Built once; only ever copied."""
    ssd = make_regular_ssd()
    for lba in range(ssd.logical_pages):
        ssd.write(lba, (b"v-%d" % lba).ljust(PAGE_SIZE, b"\0"))
    controller = NVMeController(ssd)
    for lba in range(ssd.logical_pages):
        data = [(b"w-%d" % lba).ljust(PAGE_SIZE, b"\0")]
        completion = controller.submit(
            NVMeCommand(Opcode.WRITE, slba=lba, nlb=1, data=data)
        )
        if not completion.ok:
            break
    assert completion.status is StatusCode.CAPACITY_EXCEEDED
    return ssd


def device(condition="as built"):
    """A REAL-content TimeSSD with two versions of LBAs 0-3, in
    ``condition``; or, when ``full``, :func:`full_device`."""
    if condition == "full":
        return full_device()
    ssd = make_timessd(content_mode=ContentMode.REAL, **CONDITIONS[condition])
    for version in (b"v1", b"v2"):
        for lba in range(4):
            ssd.write(lba, (version + b"-%d" % lba).ljust(PAGE_SIZE, b"\0"))
        ssd.clock.advance(1000)
    if condition == "read-only":
        controller = NVMeController(ssd)
        for i in range(ssd.device.geometry.total_pages):
            data = [(b"fill-%d" % i).ljust(PAGE_SIZE, b"\0")]
            command = NVMeCommand(Opcode.WRITE, slba=4 + i % 60, nlb=1, data=data)
            if not controller.submit(command).ok:
                break
            ssd.clock.advance(100)
        assert ssd.degraded_reason is not None
    if condition == "locked":
        assert not ssd.retention_lock.unlocked
    return ssd


@st.composite
def commands(draw):
    """A command of any opcode, its fields valid but for up to two."""
    opcode = draw(OPCODES[draw(st.sampled_from(OPCODE_KINDS))])
    fields = {name: draw(valid) for name, valid in VALID.items()}
    for name in draw(st.sets(st.sampled_from(sorted(VALID)), max_size=2)):
        fields[name] = draw(HOSTILE)
    nlb = fields["nlb"]
    count = nlb if type(nlb) is int and 0 <= nlb <= 4 else 1
    data = {
        "fit": [b"x" * PAGE_SIZE] * count,
        "short": [b"x"] * count,
        "count": [b"x" * PAGE_SIZE] * (count + 1),
        "none": None,
    }[draw(st.sampled_from(["fit", "fit", "short", "count", "none"]))]
    return NVMeCommand(opcode, data=data, admin=draw(st.booleans()), **fields)


def state(ssd):
    counters = {
        name: value
        for name, value in ssd.metrics_snapshot()["counters"].items()
        if name.startswith(("flash.", "ftl.host_"))
    }
    l2p = [ssd.mapping.lookup(lpa) for lpa in range(ssd.logical_pages)]
    return counters, l2p, ssd.clock.now_us


def host_serial(command):
    """A member of its own queue's enum the queued route refuses."""
    opcode = command.opcode
    if command.admin:
        return type(opcode) is AdminOpcode
    return type(opcode) is Opcode and opcode not in QUEUED


@FUZZ
@given(command=commands(), condition=st.sampled_from(sorted(CONDITIONS)))
def test_submit_completes_every_command_and_a_refusal_changes_nothing(
    command, condition
):
    ssd = device(condition)
    before = state(ssd)
    completion = NVMeController(ssd).submit(command)
    assert completion.status in STATUSES
    if not completion.ok:
        assert state(ssd) == before


@FUZZ
@given(command=commands(), condition=st.sampled_from(sorted(CONDITIONS)))
def test_the_queued_route_completes_every_command_like_submit(command, condition):
    ssd, twin = device(condition), device(condition)
    (alone,), _ = HostNVMeDriver(twin).submit_async([SIBLING])
    (completion, read), _ = HostNVMeDriver(ssd).submit_async([command, SIBLING])
    assert completion.status in STATUSES
    assert read.ok
    if not completion.ok:
        assert read.result == alone.result
        assert state(ssd) == state(twin)
    if host_serial(command):
        assert completion.status is StatusCode.INVALID_OPCODE
    else:
        serial = NVMeController(device(condition)).submit(command)
        assert (serial.status, serial.result, serial.latency_us) == (
            completion.status,
            completion.result,
            completion.latency_us,
        )
