"""Unit tests for packet formats."""

import pytest

from repro.net.addressing import BROADCAST_ADDR
from repro.net.packet import (
    HelloHeader,
    IP_HEADER_BYTES,
    Packet,
    PacketKind,
    RerrHeader,
    RrepHeader,
    RreqHeader,
)


class TestHeaders:
    def test_rreq_sizes(self):
        h = RreqHeader(rreq_id=1, origin=0, origin_seq=1, dst=5)
        assert h.size_bytes(with_load_extension=False) == 24
        assert h.size_bytes(with_load_extension=True) == 28

    def test_rreq_dedupe_key(self):
        h = RreqHeader(rreq_id=9, origin=3, origin_seq=1, dst=5)
        assert h.dedupe_key() == (3, 9)

    def test_rrep_size(self):
        assert RrepHeader(origin=0, dst=5, dst_seq=2).size_bytes() == 20

    def test_rerr_size_scales_with_destinations(self):
        assert RerrHeader().size_bytes() == 4
        assert RerrHeader(unreachable=[(1, 2), (3, 4)]).size_bytes() == 20

    def test_hello_sizes(self):
        h = HelloHeader(load=0.4, neighbour_count=3)
        assert h.size_bytes(False) == 20
        assert h.size_bytes(True) == 24


class TestPacket:
    def _data(self, **kw):
        defaults = dict(
            kind=PacketKind.DATA, src=0, dst=5, ttl=16, payload_bytes=512
        )
        defaults.update(kw)
        return Packet(**defaults)

    def test_uid_unique(self):
        assert self._data().uid != self._data().uid

    def test_wire_bytes_data(self):
        assert self._data().wire_bytes() == 512 + IP_HEADER_BYTES

    def test_wire_bytes_control(self):
        rreq = Packet(
            kind=PacketKind.RREQ, src=0, dst=BROADCAST_ADDR, ttl=32,
            header=RreqHeader(rreq_id=1, origin=0, origin_seq=1, dst=5),
        )
        assert rreq.wire_bytes(with_load_extension=False) == 24
        assert rreq.wire_bytes(with_load_extension=True) == 28

    def test_broadcast_flag(self):
        assert self._data(dst=BROADCAST_ADDR).is_broadcast
        assert not self._data().is_broadcast

    def test_validation(self):
        with pytest.raises(ValueError):
            self._data(ttl=-1)
        with pytest.raises(ValueError):
            self._data(payload_bytes=-5)

    def test_copy_for_forwarding_fresh_uid(self):
        p = self._data(flow_id=3, seq=9)
        c = p.copy_for_forwarding()
        assert c.uid != p.uid
        assert (c.flow_id, c.seq, c.src, c.dst) == (3, 9, 0, 5)
        assert c.header is p.header  # shared by design
